package main

import (
	"bytes"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/broker"
	"repro/internal/geometry"
	"repro/internal/telemetry"
	"repro/internal/wal"
	"repro/internal/wire"
)

// twinResult compares a broker built with Options.Metrics against the
// same broker without, on the workload's own rectangles.
type twinResult struct {
	plainPerS, metricsPerS float64
	stageUS                map[string]float64 // mean seconds per stage, in microseconds
}

// twin is an in-process broker over the workload's rectangles with an
// unchecked drainer: no log, no wire.
type twin struct {
	br    *broker.Broker
	drain *drainer
}

func newTwin(sp spec, rects []geometry.Rect, reg *telemetry.Registry) (*twin, error) {
	t := &twin{br: broker.New(broker.Options{DefaultBuffer: sp.buffer, Metrics: reg}), drain: newDrainer(false)}
	t.drain.paused.Store(true)
	for _, r := range rects {
		sub, err := t.br.Subscribe(r)
		if err != nil {
			t.close()
			return nil, err
		}
		t.drain.add(&subRec{sub: sub})
		yieldToRebuilder()
	}
	if _, err := fold(t.br, nil); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *twin) close() {
	t.br.Close()
	t.drain.halt()
}

// burst publishes ring points into the twin for d and returns the
// count. Only this twin's drainer sweeps meanwhile.
func (t *twin) burst(in *inputs, d time.Duration, from int) (int, error) {
	t.drain.paused.Store(false)
	defer t.drain.paused.Store(true)
	start := now()
	end, nextYield := start+int64(d), start+int64(sweepCadence)
	n := 0
	for at := start; at < end; at = now() {
		i := (from + n) % ringSize
		if _, err := t.br.Publish(in.ring[i], in.payloads[i]); err != nil {
			return n, err
		}
		n++
		if at >= nextYield {
			runtime.Gosched()
			nextYield = now() + int64(sweepCadence)
		}
	}
	return n, nil
}

// measureTwins alternates short bursts between a plain broker and one
// built with a metrics registry, both over rects, for about d in all,
// and reads the metrics twin's stage histograms. The alternation makes
// drift in the machine hit both sides alike.
func measureTwins(sp spec, in *inputs, rects []geometry.Rect, d time.Duration) (twinResult, error) {
	res := twinResult{stageUS: map[string]float64{}}
	reg := telemetry.NewRegistry()
	plain, err := newTwin(sp, rects, nil)
	if err != nil {
		return res, err
	}
	defer plain.close()
	metered, err := newTwin(sp, rects, reg)
	if err != nil {
		return res, err
	}
	defer metered.close()

	const rounds = 4
	slice := d / (2 * rounds)
	var plainN, meteredN int
	for r := 0; r < rounds; r++ {
		n, err := plain.burst(in, slice, plainN)
		if err != nil {
			return res, err
		}
		plainN += n
		if n, err = metered.burst(in, slice, meteredN); err != nil {
			return res, err
		}
		meteredN += n
	}
	total := (slice * rounds).Seconds()
	res.plainPerS, res.metricsPerS = float64(plainN)/total, float64(meteredN)/total

	for _, f := range reg.Gather() {
		if f.Name != telemetry.StageFamily {
			continue
		}
		for _, smp := range f.Samples {
			if smp.Hist == nil || smp.Hist.Count == 0 {
				continue
			}
			for _, l := range smp.Labels {
				if l.Key == "stage" {
					res.stageUS[l.Value] = smp.Hist.Mean() * 1e6
				}
			}
		}
	}
	return res, nil
}

// countingWriter is the in-memory socket the codec probe writes
// against: it counts Write calls and bytes and keeps the last frame.
type countingWriter struct {
	writes, bytes int
	buf           bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.bytes += len(p)
	return w.buf.Write(p)
}

// codecResult is the cost of one representative event frame through
// wire.WriteMessage and wire.ReadMessage.
type codecResult struct {
	encodeUS, decodeUS float64
	bytesPerEvent      float64
	writesPerEvent     float64
	allocsPerEvent     float64 // encode side
}

// probeCodec times the event frame the wire workload's server writes:
// the workload's point and payload size, a Seq and a trace id.
func probeCodec(in *inputs) (codecResult, error) {
	const iters = 20_000
	msg := &wire.Message{
		Type:    wire.TypeEvent,
		Point:   in.ring[0],
		Payload: in.payloads[0],
		Seq:     123_456,
		TraceID: telemetry.NewTraceID(),
		SubID:   17,
	}
	var res codecResult
	w := &countingWriter{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		w.buf.Reset()
		if err := wire.WriteMessage(w, msg); err != nil {
			return res, err
		}
	}
	res.encodeUS = float64(time.Since(t0).Nanoseconds()) / 1e3 / iters
	runtime.ReadMemStats(&ms1)
	res.allocsPerEvent = float64(ms1.Mallocs-ms0.Mallocs) / iters
	res.bytesPerEvent = float64(w.bytes) / iters
	res.writesPerEvent = float64(w.writes) / iters

	frame := append([]byte(nil), w.buf.Bytes()...)
	rd := bytes.NewReader(frame)
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		rd.Reset(frame)
		if _, err := wire.ReadMessage(rd); err != nil {
			return res, err
		}
	}
	res.decodeUS = float64(time.Since(t0).Nanoseconds()) / 1e3 / iters
	return res, nil
}

// probeRTT is the median Client.Ping round trip on the publisher's
// connection, in microseconds.
func probeRTT(c *wire.Client) (float64, error) {
	const pings = 300
	ns := make([]float64, 0, pings)
	for i := 0; i < pings; i++ {
		t0 := now()
		if err := c.Ping(); err != nil {
			return 0, err
		}
		ns = append(ns, float64(now()-t0)/1e3)
	}
	return median(ns), nil
}

// probeSyncAlways is the median Log.Append under SyncAlways, in
// microseconds: what the durable workload would cost per publication if
// it fsynced each one. Informational — it measures the sandbox disk.
func probeSyncAlways(dir string, in *inputs) (float64, error) {
	log, err := wal.Open(filepath.Join(dir, "wal-always"), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return 0, err
	}
	defer log.Close()
	const appends = 40
	us := make([]float64, 0, appends)
	for i := 0; i < appends; i++ {
		t0 := now()
		if _, err := log.Append(0, in.ring[i], in.payloads[i]); err != nil {
			return 0, err
		}
		us = append(us, float64(now()-t0)/1e3)
	}
	return median(us), nil
}

// overlayWatch samples the shards' overlay lengths while a phase runs,
// for broker.overlay_len_max.
type overlayWatch struct {
	br   *broker.Broker
	max  int
	stop chan struct{}
	done chan struct{}
}

func watchOverlay(br *broker.Broker) *overlayWatch {
	w := &overlayWatch{br: br, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			for _, st := range br.ShardStats() {
				w.max = max(w.max, st.OverlayLen)
			}
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// halt stops the watcher and returns the longest overlay it saw.
func (w *overlayWatch) halt() int {
	close(w.stop)
	<-w.done
	return w.max
}
