//go:build !race

package pubsub_test

const raceEnabled = false
