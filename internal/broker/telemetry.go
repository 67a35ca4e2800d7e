package broker

import (
	"strconv"

	"repro/internal/telemetry"
)

// brokerTel bundles the broker's metric handles. A nil *brokerTel is
// the disabled state: every site that records checks for it first, so
// an uninstrumented broker pays nothing on the publish path (no extra
// clock reads, no atomics beyond its own Stats counters).
type brokerTel struct {
	publishLatency *telemetry.Histogram
	fanout         *telemetry.Histogram
	published      *telemetry.Counter
	delivered      *telemetry.Counter
	dropped        *telemetry.Counter // labelled with the broker's policy
	evicted        *telemetry.Counter
	rebuilds       *telemetry.Counter
	rebuildLatency *telemetry.Histogram
	nodesVisited   *telemetry.Histogram
	leavesVisited  *telemetry.Histogram
	entriesTested  *telemetry.Histogram
	slowSubsTotal  *telemetry.Counter
	// workerFanouts counts publications of which a part worker took at
	// least one part off the publisher.
	workerFanouts *telemetry.Counter
	// Waterfall stage samples (shared pubsub_stage_seconds family; the
	// wire layer registers the write/client_recv stages). match and
	// enqueue are time summed over parts. stageWAL is nil without a log.
	stageWAL     *telemetry.Histogram
	stageIngest  *telemetry.Histogram
	stageMatch   *telemetry.Histogram
	stageEnqueue *telemetry.Histogram
	// partMatch is the per-part match-cost histogram. Its family and
	// label say shard (pubsub_broker_shard_match_seconds{shard}) because
	// /debug/slo and pubsub-cli read them by those names.
	partMatch []*telemetry.Histogram
}

// newBrokerTel registers the broker's metric families against reg and
// wires scrape-time gauges that read b's counters. Registration is
// idempotent, so several brokers sharing one registry accumulate into
// the same families.
func newBrokerTel(b *Broker, reg *telemetry.Registry) *brokerTel {
	if reg == nil {
		return nil
	}
	t := &brokerTel{
		publishLatency: reg.Histogram("pubsub_broker_publish_seconds",
			"End-to-end Publish latency: match plus deliver.", telemetry.LatencyBuckets()),
		fanout: reg.Histogram("pubsub_broker_fanout_size",
			"Matching subscriptions per publication. Counts matches in the publisher's index snapshot, so subscriptions cancelled since the last rebuild are included until the next rebuild prunes them; delivered_total counts live deliveries only.", telemetry.CountBuckets()),
		published: reg.Counter("pubsub_broker_published_total",
			"Events published."),
		delivered: reg.Counter("pubsub_broker_delivered_total",
			"Events delivered to subscriber channels."),
		dropped: reg.Counter("pubsub_broker_dropped_total",
			"Events dropped on full subscriber buffers, by overflow policy.",
			telemetry.L("policy", b.opts.Overflow.String())),
		evicted: reg.Counter("pubsub_broker_evicted_total",
			"Subscriptions evicted by the cancel-slow policy."),
		rebuilds: reg.Counter("pubsub_broker_index_rebuilds_total",
			"Matching index rebuilds."),
		rebuildLatency: reg.Histogram("pubsub_broker_rebuild_seconds",
			"Matching index rebuild duration.", telemetry.LatencyBuckets()),
		nodesVisited: reg.Histogram("pubsub_index_nodes_visited",
			"Index tree nodes entered per point query.", telemetry.CountBuckets()),
		leavesVisited: reg.Histogram("pubsub_index_leaves_visited",
			"Index tree leaves scanned per point query.", telemetry.CountBuckets()),
		entriesTested: reg.Histogram("pubsub_index_entries_tested",
			"Leaf records compared against the event per point query.", telemetry.CountBuckets()),
	}
	reg.GaugeFunc("pubsub_broker_subscriptions",
		"Live subscriptions.", func() float64 {
			b.mu.RLock()
			defer b.mu.RUnlock()
			return float64(len(b.subs))
		})
	reg.GaugeFunc("pubsub_broker_queue_depth",
		"Events currently buffered across all subscriptions.", func() float64 {
			b.mu.RLock()
			defer b.mu.RUnlock()
			total := 0
			for _, s := range b.subs {
				total += len(s.ch)
			}
			for _, k := range b.sinks {
				if k != nil {
					k.mu.Lock()
					total += k.used
					k.mu.Unlock()
				}
			}
			return float64(total)
		})
	reg.GaugeFunc("pubsub_broker_queue_high_water",
		"Deepest any subscription buffer has been.", func() float64 {
			return float64(b.highWater.Load())
		})
	t.slowSubsTotal = reg.Counter("pubsub_broker_slow_transitions_total",
		"Subscriptions crossing the slow-lag threshold (healthy-to-slow flips).")
	reg.GaugeFunc("pubsub_broker_head_seq",
		"Highest assigned sequence number: the WAL offset when durable, the in-memory Seq otherwise.",
		func() float64 { return float64(b.head.Load()) })
	reg.GaugeFunc("pubsub_broker_max_lag_events",
		"Largest per-subscription consumer lag behind the broker head, in events.",
		func() float64 { return float64(b.maxLag()) })
	reg.GaugeFunc("pubsub_broker_max_lag_age_seconds",
		"Longest time since a lagging subscription's last successful delivery.",
		func() float64 {
			head := b.head.Load()
			nowNS := b.rec.Now()
			var maxNS int64
			b.mu.RLock()
			for _, s := range b.subs {
				if lag, ageNS := lagOf(s, head, nowNS); lag > 0 && ageNS > maxNS {
					maxNS = ageNS
				}
			}
			b.mu.RUnlock()
			return float64(maxNS) / 1e9
		})
	reg.GaugeFunc("pubsub_broker_slow_subscriptions",
		"Subscriptions currently flagged past the slow-lag threshold.",
		func() float64 { return float64(b.slowSubs.Load()) })
	reg.HistogramFunc("pubsub_broker_lag_events",
		"Per-subscription consumer lag behind the broker head at scrape time, in events (live distribution, not an accumulation).",
		b.lagHistogram)
	reg.GaugeFunc("pubsub_broker_shards",
		"Parts the current index snapshot is packed in (1 below the parallel population or on one CPU).",
		func() float64 { return float64(b.numParts()) })
	t.workerFanouts = reg.Counter("pubsub_broker_parallel_fanouts_total",
		"Publications of which a part worker took at least one part (the rest ran every part on the publisher goroutine).")
	if b.log != nil {
		t.stageWAL = telemetry.StageHistogram(reg, telemetry.StageWAL)
	}
	t.stageIngest = telemetry.StageHistogram(reg, telemetry.StageIngest)
	t.stageMatch = telemetry.StageHistogram(reg, telemetry.StageMatch)
	t.stageEnqueue = telemetry.StageHistogram(reg, telemetry.StageEnqueue)
	t.partMatch = make([]*telemetry.Histogram, b.nparts)
	for i := range t.partMatch {
		t.partMatch[i] = reg.Histogram("pubsub_broker_shard_match_seconds",
			"Match-phase cost attributed to one part of the index, by part (label shard; part 0 includes the overlay).",
			telemetry.LatencyBuckets(), telemetry.L("shard", strconv.Itoa(i)))
	}
	reg.GaugeFunc("pubsub_broker_shard_imbalance",
		"Max/mean cumulative match cost over the current snapshot's parts: 1.0 is perfectly balanced, high values say one part dominates publish latency (0 until data arrives).",
		func() float64 { return t.partImbalance(b.numParts()) })
	return t
}

// partImbalance is max/mean of the first parts' match-cost histogram
// sums; 0 until a metered publish has been observed.
func (t *brokerTel) partImbalance(parts int) float64 {
	var total, most float64
	for _, h := range t.partMatch[:parts] {
		sum := h.Sum()
		total += sum
		most = max(most, sum)
	}
	if total == 0 {
		return 0
	}
	return most * float64(parts) / total
}
