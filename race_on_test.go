//go:build race

package pubsub_test

// raceEnabled reports whether the race detector is instrumenting this
// build; its bookkeeping allocates and sync.Pool drops items at random,
// so allocation-count assertions are skipped under -race.
const raceEnabled = true
