package main

// The sandbox this ledger runs on is a small virtual machine whose speed
// moves by a fifth from one half-minute to the next, whatever it runs: a
// fixed arithmetic loop shows it as clearly as the broker does. A raw
// rate measured there is a measurement of the neighbours.
//
// So every timing is taken beside a calibration kernel — a fixed,
// self-contained point-in-rectangle scan that shares no code with the
// repository — run for a few milliseconds out of every calSlice of
// measuring. The kernel's rate over a window is the machine's speed
// over that window, and the window's timings are scaled to what they
// would have been at refSpeed. Metrics are therefore in seconds of a
// reference machine, not of the wall clock; bench.machine_speed reports
// the factor, so a reader can undo it.

const (
	// refSpeed is the kernel rate, in scans per second, that timings are
	// normalised to: about what the 2.1 GHz sandbox reaches when its
	// neighbours are quiet.
	refSpeed = 80_000.0
	// calScans is the kernel work done at each calibration point (about
	// 2.5 ms), calSlice the measuring time between two points.
	calScans = 200
	calSlice = 20_000_000 // ns
)

var (
	calRects [2048][8]float64 // lo/hi per dimension; 128 KiB, cache-resident
	calPts   [64][4]float64
	calSink  int // keeps the kernel's result live
)

func init() {
	x := uint64(88172645463325252) // xorshift64: the kernel's inputs never change
	next := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x%20_000) / 1000
	}
	for i := range calRects {
		for d := 0; d < 4; d++ {
			lo := next()
			calRects[i][2*d], calRects[i][2*d+1] = lo, lo+next()/2
		}
	}
	for i := range calPts {
		for d := range calPts[i] {
			calPts[i][d] = next()
		}
	}
}

// speedometer accumulates calibration work and the time it took.
type speedometer struct {
	scans int64
	ns    int64
}

// calibrate runs the kernel once and returns how long it took, so the
// caller can keep that time out of what it is measuring.
func (m *speedometer) calibrate() int64 {
	start := now()
	hits := 0
	for k := 0; k < calScans; k++ {
		p := &calPts[k%len(calPts)]
		for i := range calRects {
			r := &calRects[i]
			if p[0] > r[0] && p[0] <= r[1] && p[1] > r[2] && p[1] <= r[3] &&
				p[2] > r[4] && p[2] <= r[5] && p[3] > r[6] && p[3] <= r[7] {
				hits++
			}
		}
	}
	calSink += hits
	took := now() - start
	m.scans += calScans
	m.ns += took
	return took
}

// pacer calibrates a loop the harness does not drive to a deadline (a
// set-up): tick runs the kernel when calSlice has passed since it last
// did, and the kernel's total time, in ns, is what the caller leaves out
// of its measurement. A nil pacer does nothing.
type pacer struct {
	speedometer
	next int64
}

func (p *pacer) tick() {
	if p == nil || now() < p.next {
		return
	}
	p.calibrate()
	p.next = now() + calSlice
}

// speed is the machine's speed over what was calibrated, in scans per
// second.
func (m speedometer) speed() float64 {
	return float64(m.scans) / (float64(m.ns) / 1e9)
}

// slowdown is how much slower than the reference the machine ran:
// multiply a rate by it, divide a duration by it.
func (m speedometer) slowdown() float64 {
	if m.ns == 0 {
		return 1
	}
	return refSpeed / m.speed()
}
