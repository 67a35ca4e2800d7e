//go:build race

package wire

// raceEnabled reports whether the race detector is instrumenting this
// build; its bookkeeping allocates and sync.Pool drops items at random,
// so allocation-count assertions are skipped under -race.
const raceEnabled = true
