// Package telemetry is a dependency-free metrics and tracing layer for
// the pub-sub runtime. It provides lock-free sharded counters, gauges,
// and fixed-bucket histograms behind a named Registry, an http.Handler
// that serves both Prometheus text exposition and expvar-style JSON,
// the flight Recorder, and a 1-in-N publication Tracer that logs a
// sampled publication as one log/slog event rendered from its records.
//
// Design constraints, in order:
//
//  1. Hot-path recording (Counter.Add, Gauge.Add, Histogram.Observe)
//     never allocates and never takes a lock. Counters and histogram
//     sums are sharded across cache-line-padded atomics so concurrent
//     publishers do not serialise on one contended word.
//  2. Every recording method is safe on a nil receiver and does
//     nothing, so instrumented code pays a single nil check when
//     telemetry is disabled.
//  3. Registration is idempotent: asking the registry for an existing
//     (name, labels) pair returns the live collector, so independently
//     initialised components can share one registry.
//
// Only scrape-time operations (Gather, the HTTP handlers) take the
// registry lock, and they snapshot under it and render outside it.
package telemetry

import (
	"fmt"
	"runtime"
	"strings"
	"unsafe"
)

// cacheLine is the assumed cache-line size used to pad shards so
// adjacent shards never share a line (avoiding false sharing).
const cacheLine = 64

// shardCount returns the number of shards for one sharded value: the
// smallest power of two >= GOMAXPROCS, capped so idle registries stay
// small.
func shardCount() int {
	n := 1
	for n < runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	if n > 64 {
		n = 64
	}
	return n
}

// shardIndex derives a cheap, allocation-free shard hint from the
// address of a stack variable. Goroutine stacks are distinct heap
// allocations, so concurrent goroutines spread across shards, while
// within one goroutine the hint is stable for the duration of a call.
func shardIndex() uint {
	var b byte
	return shardHash(uintptr(unsafe.Pointer(&b)))
}

// shardHash maps a stack address to a shard hint whose low bits depend
// on which stack holds it. Bits below 10 are call-depth noise, and the
// few just above them are the frame's offset within its stack (a new
// goroutine's stack is a few KiB), the same in every goroutine at one
// call depth; only higher bits tell stacks apart. MurmurHash3's 64-bit
// finalizer makes every bit of the hint depend on every address bit
// from 10 up.
func shardHash(addr uintptr) uint {
	h := uint64(addr >> 10)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return uint(h)
}

// Label is one constant key="value" pair attached to a metric at
// registration time.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// validName reports whether s is a legal Prometheus metric or label
// name: [a-zA-Z_:][a-zA-Z0-9_:]* (labels additionally may not contain
// ':', which checkLabels enforces).
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// checkMetricName panics on an illegal metric name; metric names are
// compile-time constants, so a bad one is a programming error.
func checkMetricName(name string) {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
}

func checkLabels(labels []Label) {
	for _, l := range labels {
		if !validName(l.Key) || strings.ContainsRune(l.Key, ':') {
			panic(fmt.Sprintf("telemetry: invalid label name %q", l.Key))
		}
	}
}

// escapeLabelValue escapes a label value for the Prometheus text
// format: backslash, double quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// labelString renders labels as {k1="v1",k2="v2"}, or "" when empty.
// It is the canonical sample key within a metric family.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}
