package health

import (
	"strings"
	"testing"
	"time"
)

// newTestSLO returns an SLO with a 60s window (1s slots, 5s fast
// window, 5s sustain) evaluated at synthetic timestamps, so the burn
// state machine can be driven without sleeping.
func newTestSLO() *SLO {
	return NewSLO(SLOOptions{
		ObjectiveSeconds: 0.005, // 5ms
		Window:           60 * time.Second,
	})
}

func TestSLOHealthyWithinBudget(t *testing.T) {
	s := newTestSLO()
	base := int64(1e12)
	for i := 0; i < 1000; i++ {
		s.observeAt(base+int64(i)*1e6, false)
	}
	st, state := s.evalAt(base + 2e9)
	if state != Healthy {
		t.Fatalf("state = %v (%s), want Healthy", state, st.Reason)
	}
	if st.SlowTotal != 1000 || st.SlowBad != 0 {
		t.Fatalf("slow window = %d/%d, want 0/1000", st.SlowBad, st.SlowTotal)
	}
}

// TestSLOBurnRateLifecycle drives a synthetic latency injection
// through the full alert lifecycle: degraded as soon as the fast
// window burns, unhealthy once the burn sustains, healthy again after
// the incident ends and the windows drain.
func TestSLOBurnRateLifecycle(t *testing.T) {
	s := newTestSLO()
	base := int64(1e12)

	// Phase 1: 100% bad events for one second -> fast burn red.
	for i := 0; i < 200; i++ {
		s.observeAt(base+int64(i)*5e6, true)
	}
	st, state := s.evalAt(base + 1e9)
	if state != Degraded {
		t.Fatalf("after fast burn: state = %v (%s), want Degraded", state, st.Reason)
	}
	if st.FastBurn < sloFastBurn {
		t.Fatalf("fast burn = %v, want >= %v", st.FastBurn, sloFastBurn)
	}

	// Phase 2: the burn continues past the sustain period while the
	// long window confirms budget loss -> unhealthy.
	for i := 0; i < 1200; i++ {
		s.observeAt(base+1e9+int64(i)*5e6, true)
	}
	st, state = s.evalAt(base + 7e9) // burning since ~base+1s, sustain 5s
	if state != Unhealthy {
		t.Fatalf("after sustained burn: state = %v (%s), want Unhealthy", state, st.Reason)
	}
	if !strings.Contains(st.Reason, "sustained") {
		t.Fatalf("reason %q should mention a sustained burn", st.Reason)
	}

	// Phase 3: the incident ends; once the fast window slides past the
	// last bad event the component recovers even though the long
	// window still remembers the burn.
	for i := 0; i < 100; i++ {
		s.observeAt(base+8e9+int64(i)*1e7, false)
	}
	st, state = s.evalAt(base + 15e9) // fast window = (10s, 15s], all good
	if state != Healthy {
		t.Fatalf("after recovery: state = %v (%s), want Healthy", state, st.Reason)
	}
	if s.burningSince.Load() != 0 {
		t.Fatalf("burningSince should reset on recovery")
	}
	if st.SlowBad == 0 {
		t.Fatalf("long window should still remember the incident")
	}

	// Phase 4: the whole window drains; counters age out.
	st, _ = s.evalAt(base + 120e9)
	if st.SlowTotal != 0 {
		t.Fatalf("after window drain: slow total = %d, want 0", st.SlowTotal)
	}
}

// TestSLODegradedNeedsVolume proves a trickle of bad events below
// sloMinEvents cannot flap the component.
func TestSLODegradedNeedsVolume(t *testing.T) {
	s := newTestSLO()
	base := int64(1e12)
	for i := 0; i < 5; i++ { // below sloMinEvents (10)
		s.observeAt(base+int64(i)*1e6, true)
	}
	if _, state := s.evalAt(base + 1e9); state != Healthy {
		t.Fatalf("5 bad events should not trip a burn alert")
	}
}

func TestSLODropsConsumeBudget(t *testing.T) {
	s := newTestSLO()
	base := int64(1e12)
	for i := 0; i < 50; i++ {
		s.observeAt(base+int64(i)*1e6, false)
	}
	st, _ := s.evalAt(base + 1e9)
	if st.SlowBad != 0 {
		t.Fatalf("good observations counted bad")
	}
	// ObserveBad routes through the same ring with bad=true.
	for i := 0; i < 50; i++ {
		s.observeAt(base+int64(i)*1e6+5e8, true)
	}
	st, _ = s.evalAt(base + 1e9)
	if st.SlowBad != 50 || st.SlowTotal != 100 {
		t.Fatalf("window = %d/%d, want 50/100", st.SlowBad, st.SlowTotal)
	}
}

// TestSLORegister wires the check into a registry and verifies the
// component surfaces with the evaluator's state.
func TestSLORegister(t *testing.T) {
	s := NewSLO(SLOOptions{ObjectiveSeconds: 0.005})
	hr := NewRegistry()
	s.Register(hr)
	rep := hr.Evaluate()
	found := false
	for _, res := range rep.Results {
		if res.Component == "slo" {
			found = true
			if res.State != Healthy.String() {
				t.Fatalf("idle slo component = %v (%s), want healthy", res.State, res.Reason)
			}
		}
	}
	if !found {
		t.Fatalf("slo component not registered: %+v", rep.Results)
	}
}

func TestSLONilSafe(t *testing.T) {
	var s *SLO
	s.Observe(1)
	s.ObserveBad()
	s.Register(nil)
	if s.Objective() != 0 || s.Window() != 0 {
		t.Fatal("nil SLO accessors should be zero")
	}
}
