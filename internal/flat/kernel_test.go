package flat

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzPlaneMask checks the AVX2 containment kernel against the Go loop
// bit for bit on a plane layout of 1–4 dimensions: runs of 1–64 boxes
// starting at any offset of their planes, bounds and coordinates drawn
// from ±Inf, ±0 and NaN, and coordinates equal to a stored Lo or Hi.
func FuzzPlaneMask(f *testing.F) {
	if !haveAVX2 {
		f.Skip("no AVX2 kernel on this processor")
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []uint8{1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 62, 63, 64} {
		for off := uint8(0); off < 4; off++ {
			for range 4 {
				data := make([]byte, 8*int(n))
				rng.Read(data)
				f.Add(off, n-1, uint8(rng.Intn(4)), data)
			}
		}
	}
	f.Fuzz(func(t *testing.T, off, n, dims uint8, data []byte) {
		palette := []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 0.5, 1, 2, math.Inf(1), math.NaN()}
		byteAt := func(i int) int {
			if len(data) == 0 {
				return 0
			}
			return int(data[i%len(data)])
		}
		start, count, d := int(off%64), int(n%64)+1, int(dims%4)+1
		stride := start + count + byteAt(0)%3 // the planes hold boxes on both sides of the run
		planes := make([]float64, 2*d*stride)
		for k := 0; k < d; k++ {
			for j := 0; j < stride; j++ {
				b := byteAt(1 + k*stride + j)
				planes[2*k*stride+j] = palette[(b&15)%len(palette)]
				planes[(2*k+1)*stride+j] = palette[(b>>4)%len(palette)]
			}
		}
		// Each coordinate is a palette value or a stored Lo or Hi of the run.
		p := make([]float64, d)
		for k := range p {
			b := byteAt(1 + d*stride + k)
			switch box := start + (b>>2)%count; b & 3 {
			case 0:
				p[k] = planes[2*k*stride+box]
			case 1:
				p[k] = planes[(2*k+1)*stride+box]
			default:
				p[k] = palette[(b>>2)%len(palette)]
			}
		}
		got := containMaskAVX2(planes, stride, start, count, p)
		if want := containMaskGo(planes, stride, start, count, p); got != want {
			t.Fatalf("boxes [%d,%d) stride %d p=%v planes=%v: AVX2 %#x, Go loop %#x", start, start+count, stride, p, planes, got, want)
		}
	})
}
