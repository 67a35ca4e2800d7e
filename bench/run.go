package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/match"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// warmup is the discarded closed-loop phase before anything is timed:
// caches fill, pools grow, the scheduler settles. A second, or the run's
// own length where that is shorter (smoke runs).
func warmup(seconds float64) time.Duration {
	return min(time.Second, share(seconds, 1))
}

// Set-up is repeated and its median reported, because one set-up of a
// small workload is a few milliseconds and a single sample of that is
// noise. Repetition stops once both minimums are met, or either maximum:
// a set-up that takes seconds averages over plenty by itself.
const (
	minSetups    = 3
	maxSetups    = 100
	minSetupTime = time.Second
	maxSetupTime = 6 * time.Second
)

// The traced run splits its measuring time between an untraced phase
// (the baseline for bench.trace_overhead_pct and the home of the
// workload-specific timings), the traced phase, and the metrics twins.
const (
	untracedShare = 0.3
	tracedShare   = 0.4
	twinShare     = 0.3
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as its last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

func share(seconds, part float64) time.Duration {
	return time.Duration(seconds * part * float64(time.Second))
}

// run executes one workload once, in one mode, and returns its result
// together with the oracle's notes.
func run(cfg config) (*result, []string, error) {
	sp, err := specByName(cfg.workload)
	if err != nil {
		return nil, nil, err
	}
	if n := runtime.NumCPU(); sp.generators > n || sp.conns > n {
		return nil, nil, fmt.Errorf("workload %s needs %d generator goroutine(s) and %d connection(s); this machine has %d CPU(s)",
			sp.name, sp.generators, sp.conns, n)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, nil, err
	}
	in, err := generate(sp, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	res := &result{Metrics: map[string]metric{}}
	var v *verdict
	if cfg.trace {
		v, err = runTraced(cfg, sp, in, res)
	} else {
		v, err = runTimed(cfg, sp, in, res)
	}
	if err != nil {
		return nil, nil, err
	}
	res.Correct, res.Attempted, res.Failed = v.correct(), v.attempted, v.failed()
	return res, v.notes, nil
}

// timedSetUp sets the workload up once and returns how long that took,
// in reference-machine seconds like every other timing: the kernel runs
// once just before the set-up and every calSlice inside its loops, and
// the kernel's own time is left out.
func timedSetUp(sp spec, in *inputs, out string) (*sut, float64, error) {
	runtime.GC()
	cal := &pacer{}
	cal.tick()
	before := cal.ns
	t0 := now()
	s, err := setUp(sp, in, out, nil, cal)
	took := now() - t0 - (cal.ns - before)
	return s, float64(took) / 1e9 / cal.slowdown(), err
}

// runTimed is the untraced run every end-to-end metric comes from.
func runTimed(cfg config, sp spec, in *inputs, res *result) (*verdict, error) {
	s, took, err := timedSetUp(sp, in, cfg.out)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer s.close()
	setups := []float64{took}

	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	if _, err := s.runPhase(warmup(cfg.seconds), nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	ph, err := s.runPhase(share(cfg.seconds, 1), nil)
	if err != nil {
		return nil, err
	}
	if err := s.quiesce(); err != nil {
		return nil, err
	}
	v := s.verify()
	if sp.durable {
		if _, err := s.replay(v, nil); err != nil {
			return nil, err
		}
	}
	s.close()

	// The remaining set-ups come after the measured system is gone, so
	// that it ran in a heap no earlier set-up had fragmented.
	spent := took
	for len(setups) < maxSetups && spent < maxSetupTime.Seconds() &&
		(len(setups) < minSetups || spent < minSetupTime.Seconds()) {
		again, took, err := timedSetUp(sp, in, cfg.out)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", len(setups)+1, err)
		}
		again.close()
		setups = append(setups, took)
		spent += took
	}

	sum := ph.summarize()
	if sum.tailPct < 99 {
		v.notes = append(v.notes, fmt.Sprintf("publish_p99_us read at p%g: windows too short for p99", sum.tailPct))
	}
	res.set("setup_s", median(setups), "s")
	res.set("publish_per_s", sum.pubPerS, "1/s")
	res.set("deliver_per_s", sum.recvPerS, "1/s")
	res.set("publish_p50_us", sum.p50US, "us")
	res.set("publish_p99_us", sum.tailUS, "us")
	res.set("heap_mb", float64(ms.HeapAlloc)/(1<<20), "MB")
	fmt.Printf("# set-ups (s): %.4g\n", setups)
	fmt.Printf("# %s: %d set-ups, %d publications (= latency samples) in %.2fs over %d windows, machine speed %.0f (reference %.0f)\n",
		sp.name, len(setups), ph.pubs(), ph.elapsed.Seconds(), len(ph.windows), ph.speed.speed(), refSpeed)
	return v, nil
}

// runTraced is the run every per-layer metric comes from.
func runTraced(cfg config, sp spec, in *inputs, res *result) (*verdict, error) {
	var walReg *telemetry.Registry
	if sp.durable {
		walReg = telemetry.NewRegistry()
	}
	s, err := setUp(sp, in, cfg.out, walReg, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer s.close()

	sh := &shadows{tr: &trace{}}
	var buildTook time.Duration
	if sh.matcher, buildTook, err = shadowMatcher(in.rects, s.padding); err != nil {
		return nil, err
	}
	if sp.durable {
		if sh.log, err = wal.Open(filepath.Join(s.dir, "wal-shadow"), walOptions(nil)); err != nil {
			return nil, err
		}
	}

	if _, err := s.runPhase(warmup(cfg.seconds), nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	stats0 := s.br.Stats()
	watch := watchOverlay(s.br)
	plain, err := s.runPhase(share(cfg.seconds, untracedShare), nil)
	if err != nil {
		watch.halt()
		return nil, err
	}
	if s.recv != nil {
		s.recv.tracing.Store(true)
	}
	traced, err := s.runPhase(share(cfg.seconds, tracedShare), sh)
	overlayMax := watch.halt()
	if sh.log != nil {
		_ = sh.log.Close() // only ever appended to; nothing reads it back
	}
	if err != nil {
		return nil, err
	}
	stats1 := s.br.Stats()

	var rttUS float64
	if sp.wire {
		if rttUS, err = probeRTT(s.pub); err != nil {
			return nil, err
		}
	}
	if err := s.quiesce(); err != nil {
		return nil, err
	}
	v := s.verify()

	// Timings taken inside the closed loop are scaled to the reference
	// machine speed like the end-to-end ones, each by its own phase's
	// calibration; standalone probes stay in wall-clock time.
	tracedSlow, plainSlow := traced.speed.slowdown(), plain.speed.slowdown()

	// --- match: the standalone index on the publications the broker saw.
	// The counts are taken over one pass of the whole ring through an
	// index without fold's padding — not over the phase, whose length
	// varies, nor through the padded index, whose padding can — so that
	// they are a function of the inputs alone and repeat exactly.
	q := float64(traced.pubs())
	bare := sh.matcher
	if s.padding > 0 {
		if bare, _, err = shadowMatcher(in.rects, 0); err != nil {
			return nil, err
		}
	}
	var counts match.QueryStats
	var ids []int
	for _, p := range in.ring {
		var qs match.QueryStats
		ids, qs = bare.MatchAppendStats(p, ids[:0])
		counts.Add(qs)
	}
	res.set("match.query_us", float64(traced.matchNS)/q/1e3/tracedSlow, "us")
	res.set("match.nodes_per_query", float64(counts.NodesVisited)/ringSize, "count")
	res.set("match.entries_per_query", float64(counts.EntriesTested)/ringSize, "count")
	res.set("match.matched_per_query", float64(counts.Matched)/ringSize, "count")
	res.set("match.useful_ratio", ratio(float64(counts.Matched), float64(counts.EntriesTested)), "ratio")
	res.set("match.build_ms", ms(buildTook), "ms")
	res.set("match.share_pct", 100*ratio(float64(traced.matchNS), float64(traced.pubNS)), "%")

	// --- broker: spans around Publish, Subscribe and Cancel.
	fanout := float64(traced.matched) / q
	res.set("broker.publish_us", float64(traced.pubNS)/q/1e3/tracedSlow, "us")
	res.set("broker.fanout_mean", v.fanoutMean, "count")
	res.set("broker.deliver_ns_per_target",
		ratio(float64(traced.pubNS-traced.matchNS-traced.appendNS)/q/tracedSlow, fanout), "ns")
	res.set("broker.settle_ms", ms(s.settle), "ms")
	subUS, cancelUS := summarizeNS(s.setupSubNS).P50, 0.0
	if sp.churn {
		subUS, cancelUS = summarizeNS(plain.subNS).P50/plainSlow, summarizeNS(plain.cancelNS).P50/plainSlow
	}
	res.set("broker.subscribe_us", subUS, "us")
	res.set("broker.cancel_us", cancelUS, "us")
	var rebuilds uint64
	for _, st := range s.br.ShardStats() {
		rebuilds += st.Rebuilds
	}
	res.set("broker.rebuilds", float64(rebuilds), "count")
	res.set("broker.overlay_len_max", float64(overlayMax), "count")
	res.set("broker.queue_high_water", float64(stats1.QueueHighWater), "count")
	res.set("broker.drops", float64(stats1.Dropped-stats0.Dropped), "count")
	res.set("broker.allocs_per_pub", float64(plain.mallocs)/float64(plain.pubs()), "count")

	// --- wal: the shadow log's appends, and the read-back.
	res.set("wal.append_us", float64(traced.appendNS)/q/1e3/tracedSlow, "us")
	var rp replayResult
	var syncs, alwaysUS float64
	if sp.durable {
		if rp, err = s.replay(v, sh.tr); err != nil {
			return nil, err
		}
		syncs = walReg.CounterValue("pubsub_wal_syncs_total")
		if alwaysUS, err = probeSyncAlways(s.dir, in); err != nil {
			return nil, err
		}
	}
	res.set("wal.bytes_per_record", ratio(float64(rp.bytes), float64(rp.records)), "B")
	res.set("wal.syncs", syncs, "count")
	res.set("wal.read_us_per_record", ratio(float64(rp.elapsed.Nanoseconds())/1e3, float64(rp.records)), "us")
	res.set("wal.replay_per_s", ratio(float64(rp.records), rp.elapsed.Seconds()), "1/s")
	res.set("wal.append_always_us", alwaysUS, "us")

	// --- wire: the codec against a counting writer, and the client side.
	var codec codecResult
	var e2e latencySummary
	var clientDrops uint64
	if sp.wire {
		if codec, err = probeCodec(in); err != nil {
			return nil, err
		}
		var ns []uint32
		for _, smp := range s.recv.samples {
			if int(smp.pub) >= plain.firstPub && int(smp.pub) < plain.endPub {
				ns = append(ns, smp.ns)
			}
		}
		e2e = summarizeNS(ns)
		clientDrops = s.sub.Dropped()
		parents := make(map[int]int) // publication -> its publish span
		for i, sn := range sh.tr.spans {
			if sn.Name == spanPublish {
				parents[sn.Pub] = i
			}
		}
		for _, sn := range s.recv.spans {
			if p, ok := parents[sn.Pub]; ok {
				sn.Parent = p
				sh.tr.add(sn)
			}
		}
	}
	res.set("wire.encode_us", codec.encodeUS, "us")
	res.set("wire.decode_us", codec.decodeUS, "us")
	res.set("wire.bytes_per_event", codec.bytesPerEvent, "B")
	res.set("wire.writes_per_event", codec.writesPerEvent, "count")
	res.set("wire.allocs_per_event", codec.allocsPerEvent, "count")
	framesPerPub := 0.0
	if sp.wire {
		framesPerPub = v.fanoutMean
	}
	res.set("wire.frames_per_publish", framesPerPub, "count")
	res.set("wire.rtt_us", rttUS, "us")
	res.set("wire.client_drops", float64(clientDrops), "count")
	res.set("wire.e2e_p50_us", e2e.P50/plainSlow, "us")
	res.set("wire.e2e_p99_us", e2e.P99/plainSlow, "us")

	// --- telemetry: what Options.Metrics costs, on twins of the workload.
	s.close()
	tw, err := measureTwins(sp, in, in.rects, share(cfg.seconds, twinShare))
	if err != nil {
		return nil, fmt.Errorf("metrics twins: %w", err)
	}
	res.set("telemetry.metrics_overhead_pct", 100*ratio(tw.plainPerS-tw.metricsPerS, tw.plainPerS), "%")
	for _, stage := range []string{telemetry.StageIngest, telemetry.StageMatch, telemetry.StageFanout, telemetry.StageEnqueue} {
		res.set("broker.stage_"+stage+"_us", tw.stageUS[stage], "us")
	}

	// --- bench: the harness itself.
	res.set("bench.trace_overhead_pct", 100*ratio(plain.perSecond()-traced.perSecond(), plain.perSecond()), "%")
	sweepMax := time.Duration(0)
	if s.drain != nil {
		sweepMax = s.drain.sweepMax
	}
	res.set("bench.sweep_ms_max", ms(sweepMax), "ms")
	res.set("bench.samples", float64(plain.pubs()+traced.pubs()), "count")
	res.set("bench.machine_speed", plain.speed.speed()/refSpeed, "ratio")
	res.set("bench.fail_ratio", ratio(float64(v.failed()), float64(v.attempted)), "ratio")

	self := sh.tr.selfTimes()
	fmt.Printf("# %s trace: %d spans", sp.name, len(sh.tr.spans))
	for _, name := range []string{spanPublish, spanMatch, spanAppend, spanRecv, spanReplay, spanNext} {
		if lt, ok := self[name]; ok {
			fmt.Printf("; %s n=%d total=%.1fms self=%.1fms", name, lt.Count, float64(lt.Total)/1e6, float64(lt.SelfNS)/1e6)
		}
	}
	fmt.Println()
	path := filepath.Join(cfg.out, "trace-"+sp.name+".jsonl")
	if err := sh.tr.write(path, environment(cfg.seed, cfg.seconds)); err != nil {
		return nil, err
	}
	return v, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, and 0 where b is 0: a layer that did nothing on a
// workload reports 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
