package flat

// haveAVX2 reports whether the processor runs containMaskAVX2.
var haveAVX2 = hasAVX2()

// useAVX2 selects containMaskAVX2 over containMaskGo. It is set once,
// before any query, from what the processor reports. Race-detector
// builds keep the Go loop, so the detector sees every plane read.
var useAVX2 = haveAVX2 && !raceBuild

// containMaskAVX2 is containMaskGo in AVX2 assembly, four boxes a step.
// It does no bounds checks: containMask makes them.
//
//go:noescape
func containMaskAVX2(planes []float64, stride, start, n int, p []float64) uint64

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether the processor has AVX2 and the operating system
// saves the YMM registers across context switches: CPUID leaf 1 for
// OSXSAVE and AVX, XCR0 for the XMM and YMM state, leaf 7 for AVX2.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0b110 != 0b110 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}
