package health

import (
	"fmt"
	"sync/atomic"
	"time"
)

// The SLO evaluator implements multi-window burn-rate alerting over a
// latency objective (Google SRE workbook, chapter 5): every delivery
// is classified good or bad against the objective, counts accumulate
// in a lock-free ring of time slots spanning the long window, and the
// health check compares the bad-event rate against the error budget
// over two windows at once. A hot *fast* window (window/12, the
// SRE 1h:5m ratio) turning red means the budget is burning right now
// and degrades the component immediately; only a burn that *sustains*
// — the fast window stays red for a full sustain period while the
// long window confirms real budget loss — goes Unhealthy. When the
// incident ends the fast window clears within minutes and the
// component recovers on its own, exactly the property that makes
// multi-window alerts non-flappy.
const (
	sloSlots   = 60 // ring granularity: window/60 per slot
	sloFastDiv = 12 // fast window = window / 12 (the SRE 1h:5m shape)
	// sloBudget is the allowed bad-event fraction: a p99 objective.
	sloBudget = 0.01
	// sloFastBurn is the burn-rate multiple at which the fast window
	// degrades the component: the SRE fast-page threshold (2% of a
	// 30-day budget in one hour). Once the fast window has stayed above
	// it for a fast window's length (window/12), with the long window
	// confirming burn >= 1, the component goes Unhealthy.
	sloFastBurn = 14.4
	// sloMinEvents is the event count a window needs before its burn
	// rate is trusted; below it the window reads 0.
	sloMinEvents = 10
)

// SLOOptions configure an SLO evaluator.
type SLOOptions struct {
	// ObjectiveSeconds is the delivery-latency threshold: an
	// end-to-end publish slower than this (or a dropped delivery)
	// consumes error budget. Required; <= 0 disables classification
	// (every latency observation counts good).
	ObjectiveSeconds float64
	// Window is the long evaluation window. Zero selects 1h.
	Window time.Duration
}

type sloSlot struct {
	epoch atomic.Int64 // absolute slot index the counters belong to
	total atomic.Uint64
	bad   atomic.Uint64
}

// SLO tracks a latency/drop service-level objective. Observe and
// ObserveBad are lock-free and allocation-free, safe on the publish
// hot path; evaluation happens at health-probe time. All methods are
// nil-safe so an unconfigured SLO costs one branch.
type SLO struct {
	objective float64
	window    time.Duration
	slotDur   int64 // ns per ring slot

	slots [sloSlots]sloSlot

	// burningSince is the probe time (UnixNano) the fast window first
	// exceeded the threshold, 0 when not burning. Updated only by
	// evaluation, never by Observe.
	burningSince atomic.Int64
}

// NewSLO builds an SLO evaluator.
func NewSLO(opts SLOOptions) *SLO {
	if opts.Window <= 0 {
		opts.Window = time.Hour
	}
	return &SLO{
		objective: opts.ObjectiveSeconds,
		window:    opts.Window,
		slotDur:   max(1, opts.Window.Nanoseconds()/sloSlots),
	}
}

// Objective reports the latency threshold in seconds.
func (s *SLO) Objective() float64 {
	if s == nil {
		return 0
	}
	return s.objective
}

// Window reports the long evaluation window.
func (s *SLO) Window() time.Duration {
	if s == nil {
		return 0
	}
	return s.window
}

// Observe classifies one end-to-end delivery latency (seconds)
// against the objective.
func (s *SLO) Observe(latencySeconds float64) {
	if s == nil {
		return
	}
	s.observeAt(time.Now().UnixNano(), s.objective > 0 && latencySeconds > s.objective)
}

// ObserveBad records one unconditionally bad event — a dropped
// delivery consumes budget regardless of latency.
func (s *SLO) ObserveBad() {
	if s == nil {
		return
	}
	s.observeAt(time.Now().UnixNano(), true)
}

// observeAt is the hot recording path: one ring-slot rotation check
// and two atomic adds. A slot whose epoch lags the current index is
// claimed by CAS and zeroed; counts racing the reset can be lost,
// which windowed alerting tolerates (the window is already an
// approximation of "recent").
func (s *SLO) observeAt(nowNS int64, bad bool) {
	idx := nowNS / s.slotDur
	sl := &s.slots[int(idx%sloSlots)]
	for {
		cur := sl.epoch.Load()
		if cur == idx {
			break
		}
		if cur > idx {
			return // a newer epoch claimed the slot; drop the stale count
		}
		if sl.epoch.CompareAndSwap(cur, idx) {
			sl.total.Store(0)
			sl.bad.Store(0)
			break
		}
	}
	sl.total.Add(1)
	if bad {
		sl.bad.Add(1)
	}
}

// SLOStatus is one evaluation of the objective, rendered by
// /debug/slo and pubsub-cli slo.
type SLOStatus struct {
	ObjectiveSeconds  float64 `json:"objective_seconds"`
	Budget            float64 `json:"budget"`
	WindowSeconds     float64 `json:"window_seconds"`
	FastWindowSeconds float64 `json:"fast_window_seconds"`
	FastBurn          float64 `json:"fast_burn"`
	SlowBurn          float64 `json:"slow_burn"`
	FastBad           uint64  `json:"fast_bad"`
	FastTotal         uint64  `json:"fast_total"`
	SlowBad           uint64  `json:"slow_bad"`
	SlowTotal         uint64  `json:"slow_total"`
	BurningForSeconds float64 `json:"burning_for_seconds"`
	State             string  `json:"state"`
	Reason            string  `json:"reason"`
}

// Status evaluates the objective now.
func (s *SLO) Status() SLOStatus {
	st, _ := s.evalAt(time.Now().UnixNano())
	return st
}

// evalAt computes both burn rates and advances the sustain state
// machine at the given probe time.
func (s *SLO) evalAt(nowNS int64) (SLOStatus, State) {
	idx := nowNS / s.slotDur
	var fastBad, fastTotal, slowBad, slowTotal uint64
	for i := range s.slots {
		sl := &s.slots[i]
		e := sl.epoch.Load()
		if e <= 0 || e > idx || idx-e >= sloSlots {
			continue
		}
		b, t := sl.bad.Load(), sl.total.Load()
		slowBad += b
		slowTotal += t
		if idx-e < sloSlots/sloFastDiv {
			fastBad += b
			fastTotal += t
		}
	}
	st := SLOStatus{
		ObjectiveSeconds:  s.objective,
		Budget:            sloBudget,
		WindowSeconds:     s.window.Seconds(),
		FastWindowSeconds: (s.window / sloFastDiv).Seconds(),
		FastBurn:          burnRate(fastBad, fastTotal),
		SlowBurn:          burnRate(slowBad, slowTotal),
		FastBad:           fastBad,
		FastTotal:         fastTotal,
		SlowBad:           slowBad,
		SlowTotal:         slowTotal,
	}

	state := Healthy
	if st.FastBurn >= sloFastBurn {
		since := s.burningSince.Load()
		if since == 0 {
			s.burningSince.CompareAndSwap(0, nowNS)
			since = s.burningSince.Load()
		}
		st.BurningForSeconds = float64(nowNS-since) / 1e9
		if nowNS-since >= (s.window/sloFastDiv).Nanoseconds() && st.SlowBurn >= 1 {
			state = Unhealthy
			st.Reason = fmt.Sprintf("budget burn sustained %.0fs: fast %.1fx, long %.1fx budget",
				st.BurningForSeconds, st.FastBurn, st.SlowBurn)
		} else {
			state = Degraded
			st.Reason = fmt.Sprintf("fast burn %.1fx budget (%d/%d bad in %s window)",
				st.FastBurn, fastBad, fastTotal, s.window/sloFastDiv)
		}
	} else {
		s.burningSince.Store(0)
		st.Reason = fmt.Sprintf("within budget: fast %.2fx, long %.2fx", st.FastBurn, st.SlowBurn)
	}
	st.State = state.String()
	return st, state
}

// burnRate is (bad/total)/budget, 0 when the window lacks sloMinEvents.
func burnRate(bad, total uint64) float64 {
	if total < sloMinEvents {
		return 0
	}
	return (float64(bad) / float64(total)) / sloBudget
}

// Register wires the SLO into a health registry as the "slo"
// component: Degraded on fast burn, Unhealthy on sustained burn.
func (s *SLO) Register(r *Registry) {
	if s == nil || r == nil {
		return
	}
	r.Register("slo", s.check)
}

func (s *SLO) check() (State, string) {
	st, state := s.evalAt(time.Now().UnixNano())
	return state, st.Reason
}
