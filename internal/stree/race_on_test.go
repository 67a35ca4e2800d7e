//go:build race

package stree_test

// raceEnabled reports whether the race detector is instrumenting this
// build; its shadow-memory bookkeeping allocates, so allocation-count
// assertions are skipped under -race.
const raceEnabled = true
