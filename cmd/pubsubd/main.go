// Command pubsubd runs a content-based publish-subscribe broker daemon
// speaking the library's TCP wire protocol.
//
// Usage:
//
//	pubsubd -addr :7070 -write-timeout 5s -idle-timeout 2m -overflow drop-oldest \
//	        -metrics-addr :9090 -log-level info -trace-sample 1000
//
// With -data-dir set the daemon keeps a crash-safe publication log:
// every publish is appended (and, under -fsync always, written and
// fsynced) before it is acknowledged or fanned out, event sequence
// numbers become stable log offsets that survive restarts, and
// subscribers may resume with the wire protocol's from_offset field
// (pubsub-cli sub -from / replay). -fsync interval is group commit: it
// acknowledges from memory and writes and fsyncs the batch every
// -fsync-interval, so a crash of the daemon or of the machine can lose
// that last window of acknowledged publishes (always the tail, never a
// gap) in exchange for throughput; -fsync never writes every publish to
// the OS but never fsyncs; -retention-bytes bounds disk use by deleting
// the oldest sealed segments. Without -data-dir nothing changes: the
// broker runs fully in-memory as before.
//
// With -metrics-addr set the daemon serves Prometheus text exposition on
// /metrics (expvar-style JSON with ?format=json), the flight-recorder dump
// on /debug/events (JSON; filter with ?trace=<hex id>, ?kind=<name>,
// ?limit=<n>), health probes on /healthz (liveness: 503 only when a
// component — broker, WAL fail-stop latch, rebuilder, wire server — is
// unhealthy) and /readyz (readiness: 503 until WAL recovery, the first
// index snapshot and the listener are all up, and again if a component
// goes unhealthy later), consumer-lag introspection on /debug/lag
// (per-subscription and per-connection lag behind the broker head, as
// JSON; pubsub-cli lag/top render it), the matching-index shape on
// /debug/index, and the standard pprof profiles under /debug/pprof/ on
// a dedicated listener. -trace-sample N traces every Nth publication in
// the flight recorder, as if it had arrived over the wire, and logs it
// as one structured event (msg=publish) rendered from those records,
// its stage split (wal, ingest, match, enqueue) among them.
// -slow-sub-lag sets the lag, in events behind the head, past which a
// subscription is flagged slow (degrading /healthz and counting
// slow-transition metrics and flight records).
//
// The flight recorder itself is always on: a fixed-memory ring of
// -events records (64 bytes each) capturing every publish plus per-stage
// detail for publications that arrived over the wire or were sampled. SIGQUIT dumps it
// to stderr in text form without stopping the daemon.
//
// Stop with SIGINT/SIGTERM; the daemon drains in-flight event pumps for
// up to -drain-timeout before closing, flushing buffered events to
// subscribers. A second signal aborts the drain immediately.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/broker"
	"repro/internal/health"
	"repro/internal/telemetry"
	"repro/internal/wal"
	"repro/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pubsubd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pubsubd", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":7070", "listen address")
		buffer   = fs.Int("buffer", 64, "default per-subscription event buffer")
		statsInt = fs.Duration("stats", 0, "log broker stats at this interval (0 disables)")

		slowLag      = fs.Uint64("slow-sub-lag", 4096, "flag subscriptions this many events behind the head as slow (0 disables)")
		overflow     = fs.String("overflow", "drop-newest", "default overflow policy: drop-newest, drop-oldest, block or cancel-slow")
		blockTimeout = fs.Duration("block-timeout", 50*time.Millisecond, "bounded wait of the block overflow policy")
		writeTO      = fs.Duration("write-timeout", 10*time.Second, "per-connection frame write deadline (0 disables)")
		idleTO       = fs.Duration("idle-timeout", 5*time.Minute, "evict connections silent for this long (0 disables)")
		pingInt      = fs.Duration("ping-interval", 0, "server keepalive ping interval (0 selects idle-timeout/3)")
		drainTO      = fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown drain budget before hard close")

		dataDir        = fs.String("data-dir", "", "directory for the durable publication log (empty runs in-memory only)")
		fsyncPolicy    = fs.String("fsync", "always", "log fsync policy: always (write+fsync per publish), interval (group commit: a crash may lose the last -fsync-interval of acked publishes) or never (write per publish, no fsync)")
		fsyncInt       = fs.Duration("fsync-interval", 50*time.Millisecond, "write+fsync cadence of the interval fsync policy: the most a crash can lose")
		segmentBytes   = fs.Int64("segment-bytes", 0, "rotate log segments at this size (0 selects 64MiB)")
		retentionBytes = fs.Int64("retention-bytes", 0, "delete oldest sealed segments beyond this total (0 keeps everything)")

		sloP99    = fs.Duration("slo-delivery-p99", 0, "delivery-latency SLO objective: publishes slower end-to-end than this (and drops) consume the 1% error budget; multi-window burn rates feed /healthz and /debug/slo (0 disables)")
		sloWindow = fs.Duration("slo-window", time.Hour, "long burn-rate window for -slo-delivery-p99 (fast window is 1/12th of it)")

		metricsAddr = fs.String("metrics-addr", "", "serve /metrics, /debug/events and /debug/pprof on this address (empty disables)")
		logLevel    = fs.String("log-level", "info", "log verbosity: debug, info, warn or error")
		traceSample = fs.Int("trace-sample", 0, "trace every Nth publication in the flight recorder and log it as one event rendered from its records (0 disables)")
		events      = fs.Int("events", telemetry.DefaultRecorderCapacity, "flight recorder capacity in records of 64 bytes (minimum 512)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *events <= 0 {
		return fmt.Errorf("bad -events %d: capacity must be positive", *events)
	}
	policy, err := broker.ParseOverflowPolicy(*overflow)
	if err != nil {
		return err
	}
	if *sloP99 < 0 {
		return fmt.Errorf("bad -slo-delivery-p99 %s: must be >= 0", *sloP99)
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("bad -log-level %q: %w", *logLevel, err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	var reg *telemetry.Registry
	if *metricsAddr != "" {
		reg = telemetry.NewRegistry()
	}
	tracer := telemetry.NewTracer(logger, *traceSample)
	rec := telemetry.NewRecorder(*events)

	// Health is always wired, metrics or not: the SIGQUIT dump includes
	// it, and the probe endpoints ride the metrics listener when one is
	// configured. Readiness gates open one by one as boot progresses;
	// /readyz serves 503 until all three have passed.
	hr := health.NewRegistry()
	hr.AddGate("wal-recovery")
	hr.AddGate("snapshot")
	hr.AddGate("listener")

	var log *wal.Log
	if *dataDir != "" {
		sync, err := wal.ParseSyncPolicy(*fsyncPolicy)
		if err != nil {
			return err
		}
		log, err = wal.Open(*dataDir, wal.Options{
			SegmentBytes:   *segmentBytes,
			RetentionBytes: *retentionBytes,
			Sync:           sync,
			SyncInterval:   *fsyncInt,
			Metrics:        reg,
			Recorder:       rec,
		})
		if err != nil {
			return fmt.Errorf("opening publication log: %w", err)
		}
		defer log.Close()
		log.RegisterHealth(hr)
		rs := log.Recovered()
		st := log.Stats()
		logger.Info("publication log open",
			"dir", *dataDir,
			"fsync", sync.String(),
			"first_offset", st.FirstOffset,
			"next_offset", st.NextOffset,
			"segments", st.Segments,
			"recovered_records", rs.Records,
			"truncated_bytes", rs.TruncatedBytes,
		)
	} else if *fsyncPolicy != "always" || *retentionBytes != 0 {
		return fmt.Errorf("-fsync/-retention-bytes need -data-dir")
	}
	// The gate passes either way: with a data dir once recovery finished
	// above, without one because there is nothing to recover.
	hr.PassGate("wal-recovery")

	var slo *health.SLO
	if *sloP99 > 0 {
		slo = health.NewSLO(health.SLOOptions{
			ObjectiveSeconds: sloP99.Seconds(),
			Window:           *sloWindow,
		})
		slo.Register(hr)
		logger.Info("delivery SLO armed",
			"objective", sloP99.String(), "window", sloWindow.String())
	}

	b := broker.New(broker.Options{
		DefaultBuffer:    *buffer,
		Overflow:         policy,
		BlockTimeout:     *blockTimeout,
		SlowLagThreshold: *slowLag,
		Metrics:          reg,
		Tracer:           tracer,
		Recorder:         rec,
		Log:              log,
		SLO:              slo,
	})
	defer b.Close()
	b.RegisterHealth(hr)
	logger.Info("broker ready")
	// New installs the first index snapshot synchronously, so matching
	// is ready the moment it returns.
	hr.PassGate("snapshot")
	srv := wire.NewServerWith(b, wire.ServerOptions{
		WriteTimeout: *writeTO,
		IdleTimeout:  *idleTO,
		PingInterval: *pingInt,
		Metrics:      reg,
		Recorder:     rec,
	})
	srv.RegisterHealth(hr)

	// SIGQUIT dumps the flight recorder to stderr and keeps running, so
	// a live incident can be snapshotted without stopping the daemon.
	sigquit := make(chan os.Signal, 1)
	signal.Notify(sigquit, syscall.SIGQUIT)
	defer signal.Stop(sigquit)
	go func() {
		for range sigquit {
			if err := rec.WriteText(os.Stderr, 0, telemetry.KindNone, 0); err != nil {
				logger.Error("flight recorder dump failed", "err", err)
			}
			if err := hr.WriteText(os.Stderr); err != nil {
				logger.Error("health dump failed", "err", err)
			}
		}
	}()

	if reg != nil {
		mux := http.NewServeMux()
		mux.Handle("/metrics", telemetry.Handler(reg))
		mux.Handle("/debug/events", telemetry.EventsHandler(rec))
		mux.Handle("/healthz", health.LivenessHandler(hr))
		mux.Handle("/readyz", health.ReadinessHandler(hr))
		mux.HandleFunc("/debug/lag", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			rep := struct {
				broker.LagReport
				Conns []wire.ConnLag `json:"conns"`
			}{b.LagReport(), srv.ConnLags()}
			_ = json.NewEncoder(w).Encode(rep)
		})
		mux.HandleFunc("/debug/index", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(b.IndexReport())
		})
		mux.HandleFunc("/debug/slo", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(sloReport(reg, slo))
		})
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return err
		}
		msrv := &http.Server{Handler: mux}
		defer msrv.Close()
		go func() {
			if err := msrv.Serve(mln); err != nil && err != http.ErrServerClosed {
				logger.Error("metrics server failed", "err", err)
			}
		}()
		logger.Info("metrics listening", "addr", mln.Addr().String())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hr.PassGate("listener")
	logger.Info("listening",
		"addr", ln.Addr().String(),
		"overflow", policy.String(),
		"write_timeout", *writeTO,
		"idle_timeout", *idleTO,
	)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	stopStats := make(chan struct{})
	defer close(stopStats)
	if *statsInt > 0 {
		go func() {
			tick := time.NewTicker(*statsInt)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					st := b.Stats()
					logger.Info("stats",
						"subs", st.Subscriptions,
						"rects", st.Rectangles,
						"published", st.Published,
						"delivered", st.Delivered,
						"dropped", st.Dropped,
						"evicted", st.Evicted,
						"hwm", st.QueueHighWater,
						"rebuilds", st.IndexRebuilds,
					)
				case <-stopStats:
					return
				}
			}
		}()
	}

	select {
	case s := <-sig:
		logger.Info("draining", "signal", s.String(), "timeout", *drainTO)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
		defer cancel()
		abort := make(chan struct{})
		defer close(abort)
		go func() {
			select {
			case <-sig: // a second signal aborts the drain
				cancel()
			case <-abort:
			}
		}()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Warn("drain aborted", "err", err)
			srv.Close()
		}
		<-done
		return nil
	case err := <-done:
		return err
	}
}
