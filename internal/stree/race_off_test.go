//go:build !race

package stree_test

const raceEnabled = false
