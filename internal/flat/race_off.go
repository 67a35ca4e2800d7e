//go:build !race

package flat

// raceBuild is false without the race detector (see race_on.go).
const raceBuild = false
