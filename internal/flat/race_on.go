//go:build race

package flat

// raceBuild is true under the race detector, which cannot see the memory
// the assembly kernel reads; such builds run the Go loop instead.
const raceBuild = true
