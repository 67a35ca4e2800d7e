package pubsub

import (
	"log/slog"
	"net/http"

	"repro/internal/telemetry"
)

// MetricsRegistry collects counters, gauges, and latency histograms from
// every instrumented component that is handed the registry: brokers
// (BrokerOptions.Metrics), wire servers and reconnecting clients, and
// dispatch planners. A nil registry disables instrumentation with no
// hot-path cost.
type MetricsRegistry = telemetry.Registry

// PublicationTracer samples publications 1 in N: the broker traces each
// sampled one in its flight recorder, stage split included, and logs
// it as one structured log/slog event rendered from those records.
// Attach one via BrokerOptions.Tracer. A nil tracer disables sampling.
type PublicationTracer = telemetry.Tracer

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// NewPublicationTracer builds a tracer that logs every sampleEvery-th
// publication to logger. A nil logger or sampleEvery < 1 returns nil,
// the disabled tracer.
func NewPublicationTracer(logger *slog.Logger, sampleEvery int) *PublicationTracer {
	return telemetry.NewTracer(logger, sampleEvery)
}

// MetricsHandler serves a registry as Prometheus text exposition
// (format 0.0.4). Requests with ?format=json or an Accept header
// preferring application/json get the JSON view instead.
func MetricsHandler(r *MetricsRegistry) http.Handler { return telemetry.Handler(r) }

// FlightRecorder is an always-on, fixed-memory diagnostic ring buffer:
// every broker publish, traced per-stage detail (ingest, the stage
// split, match, dispatch decision, deliver/drop), eviction, index rebuild, keepalive
// miss and reconnect attempt is written as a compact fixed-size record,
// lock-free and without heap allocation. Components that are not given
// one explicitly (BrokerOptions.Recorder and the wire/dispatch
// equivalents) share the process-wide DefaultFlightRecorder. A nil
// recorder is safe and discards records.
type FlightRecorder = telemetry.Recorder

// NewFlightRecorder creates a flight recorder holding at least capacity
// records (memory use is fixed at 64 bytes per record; capacities below
// 512 are rounded up).
func NewFlightRecorder(capacity int) *FlightRecorder { return telemetry.NewRecorder(capacity) }

// DefaultFlightRecorder returns the process-wide flight recorder that
// instrumented components fall back to, creating it on first use.
func DefaultFlightRecorder() *FlightRecorder { return telemetry.Default() }

// EventsHandler serves a flight recorder's records as JSON, filterable
// with ?trace=<hex id>, ?kind=<record kind> and ?limit=<n>. Mount it at
// /debug/events.
func EventsHandler(r *FlightRecorder) http.Handler { return telemetry.EventsHandler(r) }

// NewTraceID returns a fresh process-unique non-zero 64-bit publication
// trace id, for callers that assign ids themselves before publishing
// via Broker.PublishTraced.
func NewTraceID() uint64 { return telemetry.NewTraceID() }

// FormatTraceID renders a trace id in its canonical 16-hex-digit form,
// as accepted by /debug/events?trace= and pubsub-cli trace.
func FormatTraceID(id uint64) string { return telemetry.FormatTraceID(id) }
