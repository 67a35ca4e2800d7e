package broker

import (
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/geometry"
	"repro/internal/health"
	"repro/internal/telemetry"
)

// TestExemplarRecordingUnderParallelFanout hammers the exemplar slots
// from every direction at once — parallel fan-out publishers stamping
// stage and per-part histograms, subscription churn driving
// rebuilds, and a scraper rendering
// OpenMetrics exposition concurrently — to prove the lock-free
// exemplar path is race-clean (run with -race) and that every exemplar
// that surfaces is a well-formed trace id. Also asserts no goroutine
// leaks once the broker closes.
func TestExemplarRecordingUnderParallelFanout(t *testing.T) {
	base := runtime.NumGoroutine()

	reg := telemetry.NewRegistry()
	slo := health.NewSLO(health.SLOOptions{ObjectiveSeconds: 10}) // generous: nothing bad, just exercised
	b := withMinOverlay(newBroker(Options{Metrics: reg, SLO: slo}, 4, 0, true), 4)

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Publishers: traced publishes through the parallel fan-out path,
	// each stamping stage exemplars and per-part match histograms.
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				pt := geometry.Point{rng.Float64() * 100, rng.Float64() * 100}
				if _, err := b.PublishTraced(pt, nil, telemetry.NewTraceID()); err != nil {
					return // broker closed under us
				}
			}
		}(int64(p) + 1)
	}

	// Churners: subscribe/cancel loops forcing rebuilds mid-publish.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var live []*Subscription
			for {
				select {
				case <-stop:
					for _, s := range live {
						s.Cancel()
					}
					return
				default:
				}
				lo := rng.Float64() * 90
				s, err := b.SubscribeWith(SubscribeOptions{Buffer: 4},
					geometry.NewRect(lo, lo+10), geometry.NewRect(lo/2, lo/2+5))
				if err != nil {
					return
				}
				live = append(live, s)
				if len(live) > 32 {
					idx := rng.Intn(len(live))
					live[idx].Cancel()
					live[idx] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			}
		}(int64(c) + 100)
	}

	// Drainer: keep subscriber channels moving so publishers are not
	// throttled by full buffers into pure drop paths.
	// (Drops are fine — they feed slo.ObserveBad — but we want both.)

	// Scraper: concurrent OpenMetrics rendering reads the exemplar
	// slots while they are being overwritten.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sb strings.Builder
			_ = reg.WriteOpenMetrics(&sb)
			_, _ = io.WriteString(io.Discard, sb.String())
			_ = b.IndexReport()
			_ = slo.Status()
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Every surfaced exemplar must be internally consistent: a
	// non-zero trace id with a value that falls in (or below the upper
	// bound of) its bucket is impossible to assert bucket-exactly under
	// torn reads, but the id and timestamp must be sane.
	now := time.Now().UnixNano()
	for _, f := range reg.Gather() {
		if f.Name != telemetry.StageFamily && f.Name != "pubsub_broker_shard_match_seconds" && f.Name != "pubsub_broker_publish_seconds" {
			continue
		}
		for _, s := range f.Samples {
			if s.Hist == nil {
				continue
			}
			for _, e := range s.Hist.Exemplars {
				if e.TraceID == 0 {
					continue
				}
				if e.Value < 0 {
					t.Fatalf("%s: exemplar with negative value %g", f.Name, e.Value)
				}
				if e.TimestampNS <= 0 || e.TimestampNS > now {
					t.Fatalf("%s: exemplar timestamp %d outside (0, now]", f.Name, e.TimestampNS)
				}
				if len(telemetry.FormatTraceID(e.TraceID)) != 16 {
					t.Fatalf("%s: trace id renders to %q", f.Name, telemetry.FormatTraceID(e.TraceID))
				}
			}
		}
	}
	stages := telemetry.StageReport(reg)
	var sawExemplar bool
	for _, st := range stages {
		if st.ExemplarTrace != "" {
			sawExemplar = true
		}
	}
	if !sawExemplar {
		t.Fatalf("no stage exemplar surfaced after concurrent publishes: %+v", stages)
	}
	if slo.Status().SlowTotal == 0 {
		t.Fatal("SLO evaluator saw no observations from the publish path")
	}

	b.Close()
	waitGoroutines(t, base)
}
