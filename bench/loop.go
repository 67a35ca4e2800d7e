package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/match"
	"repro/internal/wal"
)

// windowLen is the slice of a measured phase over which one throughput
// and one tail sample is taken. A phase reports the median over its
// windows, so one disturbed half-second cannot move the result.
const windowLen = 500 * time.Millisecond

// window is one windowLen slice of a phase. elapsed leaves out the time
// the calibration kernel took; slowdown is what that kernel says about
// the machine during the window.
type window struct {
	pubs     int
	received uint64 // events the consumer took during the window
	elapsed  time.Duration
	first    int // index in phaseResult.lat of the window's first sample
	slowdown float64
}

// shadows is what a traced phase calls beside each publication: both
// indexes are walked equally often, so neither is the warmer in cache.
type shadows struct {
	tr      *trace
	matcher match.StatsMatcher
	log     *wal.Log // durable only
}

// phaseResult is everything one closed-loop phase measured.
type phaseResult struct {
	firstPub, endPub int           // global publication indices [firstPub, endPub)
	elapsed          time.Duration // calibration time left out
	speed            speedometer   // every calibration of the phase
	lat              []uint32      // publish-call latency, ns, one per publication
	windows          []window
	subNS, cancelNS  []uint32 // churn: latency of each Subscribe and Cancel
	mallocs          uint64   // heap allocations over the phase, harness included

	// Traced phases only: totals over the shadow calls.
	pubNS    int64 // publish spans
	matchNS  int64
	appendNS int64
	matched  uint64
}

func (r *phaseResult) pubs() int { return r.endPub - r.firstPub }

// perSecond is publications per second over the whole phase, at the
// reference machine speed.
func (r *phaseResult) perSecond() float64 {
	return float64(r.pubs()) / r.elapsed.Seconds() * r.speed.slowdown()
}

func (s *sut) consumed() uint64 {
	if s.drain != nil {
		return s.drain.received.Load()
	}
	return s.recv.frames.Load()
}

// runPhase drives the closed loop — one publisher, this goroutine — for
// d of measuring time. With sh non-nil the phase is traced: every
// publish call gets a span and is followed by the shadow calls.
//
// The process has one P (see main), so the publisher hands the
// processor to the consumer once every sweepCadence; and it runs the
// calibration kernel once every calSlice, outside the measured time.
func (s *sut) runPhase(d time.Duration, sh *shadows) (*phaseResult, error) {
	res := &phaseResult{firstPub: s.published, lat: make([]uint32, 0, 1<<20)}
	var ids []int
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	start := now()
	end := start + int64(d)
	winStart, winRecv, winFirst := start, s.consumed(), 0
	var win speedometer
	nextCal, nextYield := start+calSlice, start+int64(sweepCadence)
	for {
		t0, took, err := s.publish()
		if err != nil {
			return res, err
		}
		res.lat = append(res.lat, uint32(took))
		pub := s.published - 1

		if sh != nil {
			parent := sh.tr.add(span{Name: spanPublish, Pub: pub, Parent: -1, Start: t0, End: t0 + took})
			res.pubNS += took
			if ids, err = s.shadow(sh, res, pub, parent, ids); err != nil {
				return res, err
			}
		}
		if s.sp.churn && s.published%churnEvery == 0 {
			subNS, cancelNS, err := s.churnStep()
			if err != nil {
				return res, err
			}
			res.subNS = append(res.subNS, uint32(subNS))
			res.cancelNS = append(res.cancelNS, uint32(cancelNS))
		}

		t := now()
		if t >= nextYield {
			runtime.Gosched()
			t = now()
			nextYield = t + int64(sweepCadence)
		}
		if t >= nextCal {
			// The kernel's time is no part of the phase: push every
			// pending deadline back by it.
			took := win.calibrate()
			winStart, end, t = winStart+took, end+took, t+took
			nextCal = t + calSlice
		}
		if t-winStart >= int64(windowLen) || t >= end {
			recv := s.consumed()
			res.windows = append(res.windows, window{
				pubs:     len(res.lat) - winFirst,
				received: recv - winRecv,
				elapsed:  time.Duration(t - winStart),
				first:    winFirst,
				slowdown: win.slowdown(),
			})
			res.elapsed += time.Duration(t - winStart)
			res.speed.scans, res.speed.ns = res.speed.scans+win.scans, res.speed.ns+win.ns
			winStart, winRecv, winFirst, win = t, recv, len(res.lat), speedometer{}
			if t >= end {
				break
			}
		}
	}
	res.endPub = s.published
	runtime.ReadMemStats(&ms1)
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	return res, nil
}

// shadow repeats, standalone and timed, the layer work the publish call
// just did out of the harness's sight, and records it as shadow spans
// under the publish span. ids is scratch, returned for reuse.
func (s *sut) shadow(sh *shadows, res *phaseResult, pub, parent int, ids []int) ([]int, error) {
	p := s.in.ring[pub%ringSize]

	t0 := now()
	ids, _ = sh.matcher.MatchAppendStats(p, ids[:0])
	t1 := now()
	res.matchNS += t1 - t0
	res.matched += uint64(len(ids))
	sh.tr.add(span{Name: spanMatch, Pub: pub, Parent: parent, Start: t0, End: t1, Shadow: true})

	if sh.log != nil {
		t0 := now()
		_, err := sh.log.Append(0, p, s.in.payloads[pub%ringSize])
		t1 := now()
		if err != nil {
			return ids, fmt.Errorf("shadow log: %w", err)
		}
		res.appendNS += t1 - t0
		sh.tr.add(span{Name: spanAppend, Pub: pub, Parent: parent, Start: t0, End: t1, Shadow: true})
	}
	return ids, nil
}

// summary is a phase reduced to the medians over its windows, each
// window's figures first scaled to the reference machine speed.
type summary struct {
	pubPerS, recvPerS float64
	p50US             float64
	tailUS            float64 // the p99, or the highest percentile every window's sample count supports
	tailPct           float64 // the percentile tailUS was read at
}

func (r *phaseResult) summarize() summary {
	var pubs, recvs, p50s, tails []float64
	tailPct := 99.0
	// The closing window of a phase is whatever was left; skip it when
	// it is a fragment.
	ws := r.windows
	if n := len(ws); n > 1 && ws[n-1].elapsed < windowLen/2 {
		ws = ws[:n-1]
	}
	for _, w := range ws {
		pubs = append(pubs, float64(w.pubs)/w.elapsed.Seconds()*w.slowdown)
		recvs = append(recvs, float64(w.received)/w.elapsed.Seconds()*w.slowdown)
		lat := summarizeNS(r.lat[w.first : w.first+w.pubs])
		p50s = append(p50s, lat.P50/w.slowdown)
		tails = append(tails, lat.P99/w.slowdown)
		tailPct = min(tailPct, lat.TailPct)
	}
	return summary{median(pubs), median(recvs), median(p50s), median(tails), tailPct}
}
