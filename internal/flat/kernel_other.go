//go:build !amd64

package flat

// haveAVX2 and useAVX2 are false off amd64: containMaskGo is the only
// kernel.
const haveAVX2, useAVX2 = false, false

// containMaskAVX2 is never called off amd64.
func containMaskAVX2(planes []float64, stride, start, n int, p []float64) uint64 {
	panic("flat: containMaskAVX2 called off amd64")
}
