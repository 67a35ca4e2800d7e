package broker

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geometry"
	"repro/internal/match"
	"repro/internal/telemetry"
)

// matchScratch is one goroutine's reusable matching memory: matched
// slot ids and the subscriptions they resolve to, for one part at a
// time, and the targets registered on sinks, grouped by sink, for all
// the parts the goroutine runs for one publication (sink.go). The
// publisher's lives in its pooled pubCtx; each part worker owns one for
// its lifetime.
type matchScratch struct {
	ids     []int
	targets []*Subscription
	groups  []sinkGroup
	slot    []int32 // sink index -> position in groups, see group
}

// partResult is what one part's match+enqueue step reports. Each
// pubCtx slot is written by exactly one goroutine (the publisher or
// that part's worker) and read by the publisher after the hand-off
// barrier, so the merge is a plain loop.
type partResult struct {
	targets   int // matched subscriptions
	delivered int // deliveries queued: channel sends and sink elements' ids
	// multicast is the most subscriptions the publication reached through
	// one sink element (0 unless some element carried two or more), group
	// how many subscriptions that sink had.
	multicast int
	group     int
	matchNS   int64
	enqueueNS int64
	qs        match.QueryStats
}

func (r *partResult) add(o *partResult) {
	r.targets += o.targets
	r.delivered += o.delivered
	if o.multicast > r.multicast {
		r.multicast, r.group = o.multicast, o.group
	}
	r.matchNS += o.matchNS
	r.enqueueNS += o.enqueueNS
	r.qs.Add(o.qs)
}

// pubCtx is the pooled per-publication context the staged pipeline
// threads through: ingest → per-part match then enqueue → observe.
// Every clock value in it is a reading of the recorder's monotonic
// clock, the one the log reads too; an unmetered publication reads it
// twice (t0 and observe's end stamp), and a durable one once more, in
// the log, when its append completes.
type pubCtx struct {
	ev      Event     // TraceID, and Seq once ingest assigned it
	prep    eventPrep // the publication's point and payload, cloned lazily
	sampled bool      // the tracer logs it once observed
	detail  bool      // traced: write per-stage and per-subscriber flight records
	metered bool      // stamp stages and collect query stats (detail, metrics or SLO on)
	err     error     // why the publication was refused, if it was

	t0      int64 // publish entry
	tWAL    int64 // the log's append completed (metered and durable only; t0 otherwise)
	tIngest int64 // ingest done, fan-out begins (metered only)

	// snap is the snapshot the publisher loaded; every part of the
	// publication, on whichever goroutine, matches against it. parts is
	// how many parts it has (at least 1: the overlay goes with part 0).
	snap  *snapshot
	parts int

	sc  matchScratch // the publisher goroutine's scratch
	res []partResult // one slot per part
	sum partResult   // res[:parts] merged

	// Hand-off barrier: handed counts the parts a worker accepted; each
	// worker adds 1 to pending when done and the publisher subtracts
	// handed, so whoever brings it back to 0 came last. A worker that
	// came last wakes the publisher through done (capacity 1, so the
	// worker never blocks). Untouched when nothing was handed off.
	handed  int
	pending atomic.Int32
	done    chan struct{}
}

// eventPrep defers the per-publish allocations (point clone, payload
// clone) until the first delivery actually needs them. A publish whose
// matches all hit full DropNewest buffers — or match nothing — allocates
// nothing at all. One prep may be shared by several delivering
// goroutines when part workers take part: the clones are created once
// under mu and published through the done flag (atomic release/acquire),
// so every delivery of one publication shares the same point/payload
// clones.
type eventPrep struct {
	src     geometry.Point
	payload []byte
	point   geometry.Point
	cloned  []byte
	done    atomic.Bool
	mu      sync.Mutex
}

// reset rearms the prep for a new publication (or clears its caller
// references before pooling). Field-wise on purpose: the struct holds
// a mutex and must never be copied.
func (pr *eventPrep) reset(p geometry.Point, payload []byte) {
	pr.src = p
	pr.payload = payload
	pr.point = nil
	pr.cloned = nil
	pr.done.Store(false)
}

// materialize fills ev's Point and Payload from the prep, cloning the
// publication's point and payload on the first call.
//
//pubsub:hotpath
func (pr *eventPrep) materialize(ev *Event) {
	if !pr.done.Load() {
		pr.clone()
	}
	ev.Point = pr.point
	ev.Payload = pr.cloned
}

// clone creates the shared point/payload clones, once per publication.
//
//pubsub:coldpath -- lazy materialization: clones happen only when a delivery is actually attempted, off the zero-alloc match path
func (pr *eventPrep) clone() {
	pr.mu.Lock()
	if !pr.done.Load() {
		pr.point = pr.src.Clone()
		if pr.payload != nil {
			pr.cloned = append([]byte(nil), pr.payload...)
		}
		pr.done.Store(true)
	}
	pr.mu.Unlock()
}

// Publish routes an event to every matching live subscriber. It returns
// the number of subscriber channels the event was delivered to (dropped
// deliveries are excluded). The payload is cloned once per publish, so
// the caller may reuse its buffer immediately; subscribers of one
// publication share the clone and must treat it as read-only.
//
// Publish takes no lock: it matches against the immutable snapshot
// installed by the most recent mutation and uses a pooled context, so
// the steady-state publish path performs no heap allocation. A closed
// broker refuses the publication before it is logged or numbered. A
// Publish racing Close may pass that check and then find every
// subscription already closed; it is reported as errClosed too, though
// its Seq (and WAL record) exist — Seq values are unique and ordered,
// not dense.
//
//pubsub:hotpath
func (b *Broker) Publish(p geometry.Point, payload []byte) (int, error) {
	return b.PublishTraced(p, payload, 0)
}

// PublishTraced is Publish with an explicit trace id correlating the
// publication across processes. A zero id (the Publish path) makes the
// broker assign a fresh one at ingest; either way the id travels on the
// delivered Event and on every flight-recorder record.
//
// The flight recorder always gets one compact publish record (fanout,
// deliveries, latency) — also for a refused publication. Detail
// records — the stage split, match effort, dispatch decision,
// per-element deliver and per-subscriber drop — are written only for
// traced publications: those arriving with an explicit (wire-assigned)
// id, or sampled by the tracer, which then logs the trace's records.
// In-process untraced publishes therefore stay within the zero-alloc,
// low-overhead hot-path budget.
//
//pubsub:hotpath
func (b *Broker) PublishTraced(p geometry.Point, payload []byte, traceID uint64) (int, error) {
	pc := b.ctxs.Get().(*pubCtx)
	pc.sampled = b.tracer.Sample()
	pc.detail = traceID != 0 || pc.sampled
	if traceID == 0 {
		traceID = telemetry.NewTraceID()
	}
	// Telemetry vanishes when disabled: with no registry, no SLO and no
	// trace, metered is false and the pipeline reads no stage clock and
	// collects no traversal stats.
	pc.metered = pc.detail || b.tel != nil || b.slo != nil
	pc.ev = Event{TraceID: traceID}
	pc.prep.reset(p, payload)
	pc.sum, pc.handed = partResult{}, 0
	pc.t0 = b.rec.Now()
	pc.tWAL = pc.t0

	b.publish(pc)
	if pc.sampled {
		b.tracer.Log(b.rec, traceID, pc.err)
	}

	delivered, err := pc.sum.delivered, pc.err
	// Nothing caller-owned (point, payload) may outlive the call in the
	// pool, nor may an old snapshot.
	pc.prep.reset(nil, nil)
	pc.err, pc.snap = nil, nil
	b.ctxs.Put(pc)
	return delivered, err
}

// publish is the whole pipeline for one publication. Each part's
// match-then-enqueue step (runPart) runs on the publisher goroutine
// unless that part's worker is idle to take it; a busy worker costs
// nothing, the publisher just does the part itself. A snapshot has
// several parts only where the hand-off pays (see rebuild). Every exit,
// refusals included, passes through observe.
//
//pubsub:hotpath
func (b *Broker) publish(pc *pubCtx) {
	err := b.ingest(pc)
	if err == nil {
		if pc.metered {
			pc.tIngest = b.rec.Now()
		}
		pc.snap, pc.parts = b.snap.Load(), 1
		if pc.snap != nil { // nil once Close swapped it out
			pc.parts = pc.snap.parts()
		}
		for i := 1; i < pc.parts; i++ {
			if b.work != nil {
				select {
				case b.work[i] <- pc:
					pc.handed++
					continue
				default: // worker busy with another publication
				}
			}
			b.runPart(pc, i, &pc.sc)
		}
		b.runPart(pc, 0, &pc.sc)
		b.flushSinks(pc, &pc.sc, &pc.res[0])
		if pc.handed > 0 && pc.pending.Add(int32(-pc.handed)) != 0 {
			<-pc.done
		}
		for i := range pc.res[:pc.parts] {
			pc.sum.add(&pc.res[i])
		}
		b.delivered.Add(uint64(pc.sum.delivered))
		if pc.sum.delivered == 0 && b.closed.Load() {
			// Close ran after ingest let us in: whatever we matched was
			// already closed. Say so rather than report a silent
			// zero-delivery success.
			err = errClosed
		}
	}
	pc.err = err
	b.observe(pc)
}

// ingest admits one publication: refuse it if the broker is closed,
// make it durable if a log is configured, give it its sequence number
// and advance the lag head.
//
// The append must precede every snapshot load: a subscriber registered
// before some reader observed NextOffset() == N had its snapshot
// published before that observation, so every publication with offset
// >= N loads a snapshot containing it and is delivered live, while
// offsets < N fall inside the reader's replay range — no gap between
// replay and live fanout. A failed append refuses the publication
// outright: never acked, never delivered.
//
//pubsub:hotpath
func (b *Broker) ingest(pc *pubCtx) error {
	if b.closed.Load() {
		return errClosed
	}
	var seq uint64
	if b.log != nil {
		off, end, err := b.log.AppendAt(pc.t0, pc.ev.TraceID, pc.prep.src, pc.prep.payload)
		if err != nil {
			return err
		}
		seq = off
		if pc.metered {
			pc.tWAL = end
		}
	} else {
		seq = b.seq.Add(1)
	}
	// Concurrent publishers may arrive here out of seq order; the head
	// only moves forward.
	raise(&b.head, seq)
	pc.ev.Seq = seq
	return nil
}

// runPart is one part's share of a publication: match the point
// against part i of the publication's snapshot (and, for part 0, its
// overlay), admit the event on the channel of every matched subscription
// that has one, as an element of one, file those registered on a sink
// under their sink for the caller's flushSinks, and leave the counts and
// stage times in the part's result slot. sc belongs to the calling
// goroutine.
//
//pubsub:hotpath
func (b *Broker) runPart(pc *pubCtx, i int, sc *matchScratch) {
	var r partResult
	var now int64
	if pc.metered {
		now = b.rec.Now()
	}
	sc.targets = sc.targets[:0]
	if pc.snap != nil {
		matchPart(pc.snap, i, pc.prep.src, sc, &r.qs)
	}
	r.targets = len(sc.targets)
	if pc.metered {
		t := b.rec.Now()
		r.matchNS, now = t-now, t
	}
	// materialize writes the clones into the Event it is handed, so each
	// goroutine delivers from its own copy. Deliveries are booked at the
	// latest reading this goroutine holds: the stage's start when stages
	// are stamped, the publication's entry otherwise.
	ev := pc.ev
	stamp := pc.t0
	if pc.metered {
		stamp = now
	}
	for j, s := range sc.targets {
		switch {
		case s.evicting.Load():
			// CancelSlow eviction pending
		case s.sink != nil:
			sc.group(s)
		default:
			n, _ := b.admit(&ev, &pc.prep, sc.targets[j:j+1], pc.detail, stamp)
			r.delivered += n
		}
	}
	if pc.metered {
		r.enqueueNS = b.rec.Now() - now
	}
	pc.res[i] = r
}

// partWorker is part i's goroutine: it takes the publications the
// publisher offers it and runs their part i. Started by New, stopped by
// Close.
//
//pubsub:hotpath
func (b *Broker) partWorker(i int) {
	defer b.wg.Done()
	var sc matchScratch
	for {
		select {
		case <-b.stop:
			return
		case pc := <-b.work[i]:
			b.runPart(pc, i, &sc)
			b.flushSinks(pc, &sc, &pc.res[i])
			if pc.pending.Add(1) == 0 {
				pc.done <- struct{}{}
			}
		}
	}
}

// matchPart matches p against part i of snap — and, for part 0, the
// overlay — leaving the matched subscriptions in sc.targets and adding
// the effort to qs: its trees' counters, and every overlay rectangle as
// a tested entry. A base match whose slot is a tombstone (its
// subscription was cancelled) is dropped there. A subscription's
// rectangles are all in one part or all in the overlay, so the dedup
// below is complete dedup.
//
//pubsub:hotpath
func matchPart(snap *snapshot, i int, p geometry.Point, sc *matchScratch, qs *match.QueryStats) {
	sc.ids = sc.ids[:0]
	if i < len(snap.base) {
		for _, t := range snap.base[i] {
			var bs match.QueryStats
			sc.ids, bs = t.MatchAppendStats(p, sc.ids)
			qs.Add(bs)
		}
	}
	for _, slot := range sc.ids {
		if s := snap.slots[slot].Load(); s != nil {
			sc.targets = append(sc.targets, s)
		}
	}
	if i == 0 {
		sc.ids = snap.overlay.boxes.PointAppend(p, sc.ids[:0], qs)
		for _, j := range sc.ids {
			sc.targets = append(sc.targets, snap.overlay.subs[j])
		}
	}
	// Deduplicate only when some subscription holds several
	// rectangles; otherwise every target is distinct already.
	if snap.multiRect && len(sc.targets) > 1 {
		sc.targets = dedupTargets(sc.targets)
	}
}

// dedupTargets sorts targets by subscription id and compacts exact
// duplicates in place, returning the shortened slice.
//
//pubsub:hotpath
func dedupTargets(targets []*Subscription) []*Subscription {
	slices.SortFunc(targets, func(x, y *Subscription) int { return x.id - y.id })
	w := 1
	for i := 1; i < len(targets); i++ {
		if targets[i] != targets[w-1] {
			targets[w] = targets[i]
			w++
		}
	}
	return targets[:w]
}

// observe is the one place a publication is reported: the flight
// recorder, the metric histograms with their trace-id exemplars and the
// SLO feed all read the same context, so every arrangement of parts and
// workers reports the same stages with the same meaning. The match and
// enqueue stages are time summed over parts; with workers their sum can
// exceed the total. A durable broker's time up to the append's return
// is the wal stage (0 without a log); ingest is what remains of the way
// to the fan-out.
//
// A refused publication still closes its trace (publish record with
// delivered = -1) and burns SLO budget when the log refused it; a
// closed broker is not a service failure.
//
//pubsub:hotpath
func (b *Broker) observe(pc *pubCtx) {
	rec, sum := b.rec, &pc.sum
	tid, seq := pc.ev.TraceID, pc.ev.Seq
	tEnd := rec.Now()
	total := tEnd - pc.t0
	walNS, ingestNS := pc.tWAL-pc.t0, pc.tIngest-pc.tWAL
	delivered := int64(sum.delivered)
	if pc.err != nil {
		delivered = -1
	} else if pc.detail {
		// Stamped where the stage they describe began, so a trace's
		// timeline reads stages, match, decision, deliveries, publish on
		// every path although all four are written here.
		rec.RecordAt(pc.t0, telemetry.KindStages, tid, seq,
			walNS, ingestNS, sum.matchNS, sum.enqueueNS)
		rec.RecordAt(pc.tIngest, telemetry.KindMatch, tid, seq,
			int64(sum.qs.NodesVisited), int64(sum.qs.EntriesTested), int64(sum.qs.LeavesVisited), int64(sum.targets))
		// The in-broker delivery decision, in dispatch's method values.
		// A publication that reached two or more subscriptions through
		// one sink element went to that sink's subscriptions, the group
		// S_q, as one message naming the interested ones: multicast (2),
		// reported for the largest such element. Otherwise every matching
		// subscriber got its own channel send, chosen among the live
		// rectangles: unicast (1), or none matched (0).
		method, interested, group := int64(0), int64(sum.targets), int64(0)
		if pc.snap != nil {
			group = int64(pc.snap.rects)
		}
		if sum.multicast > 0 {
			method, interested, group = 2, int64(sum.multicast), int64(sum.group)
		} else if sum.targets > 0 {
			method = 1
		}
		ratioPPM := int64(0)
		if group > 0 {
			ratioPPM = interested * 1_000_000 / group
		}
		rec.RecordAt(pc.tIngest, telemetry.KindDecision, tid, seq,
			method, interested, group, ratioPPM)
	}
	rec.RecordAt(tEnd, telemetry.KindPublish, tid, seq,
		int64(sum.targets), delivered, sum.matchNS, total)
	if !pc.metered {
		return
	}
	if pc.err != nil {
		b.observeRefused(pc)
		return
	}
	if tel := b.tel; tel != nil {
		tel.published.Inc()
		tel.delivered.Add(uint64(sum.delivered))
		tel.fanout.Observe(float64(sum.targets))
		tel.nodesVisited.Observe(float64(sum.qs.NodesVisited))
		tel.leavesVisited.Observe(float64(sum.qs.LeavesVisited))
		tel.entriesTested.Observe(float64(sum.qs.EntriesTested))
		tel.publishLatency.ObserveExemplar(time.Duration(total).Seconds(), tid)
		tel.stageWAL.ObserveExemplar(time.Duration(walNS).Seconds(), tid)
		tel.stageIngest.ObserveExemplar(time.Duration(ingestNS).Seconds(), tid)
		tel.stageMatch.ObserveExemplar(time.Duration(sum.matchNS).Seconds(), tid)
		tel.stageEnqueue.ObserveExemplar(time.Duration(sum.enqueueNS).Seconds(), tid)
		if pc.handed > 0 {
			tel.workerFanouts.Inc()
		}
		// Per-part attribution: where publish cost concentrates.
		for i := range pc.res[:pc.parts] {
			tel.partMatch[i].ObserveDuration(time.Duration(pc.res[i].matchNS))
		}
	}
	b.slo.Observe(time.Duration(total).Seconds())
}

// observeRefused reports a publication the log refused to the SLO; one
// refused by a closed broker is no service failure.
//
//pubsub:coldpath -- refusals only: the log failed the append or the broker is closed
func (b *Broker) observeRefused(pc *pubCtx) {
	if !errors.Is(pc.err, errClosed) {
		b.slo.ObserveBad()
	}
}

// A publication goes into each queue as one element: the event and the
// subscriptions it is for — those it matched on a sink, or the one
// subscription a channel belongs to. Each kind of queue has three
// primitives: tryPut, popOldest and putWait. What became of an element:
const (
	putOK     = iota
	putFull   // the overflow policy decides
	putClosed // not delivered, not counted
)

// admit puts one element into its queue and books the outcome at nowNS,
// a reading the caller holds: sent for each subscription and, traced,
// one deliver record naming the first, the queue's depth in deliveries
// and the element's size; or, refused, lost for each. Deliver and drop
// records are written only when detail (a traced publication) asks, so
// a saturated untraced publish writes none. An element whose queue
// closed under the publisher books nothing. It returns the deliveries
// queued and the queue's subscription count.
//
//pubsub:hotpath
//pubsub:commit -- hands the event to a subscriber queue; after this the publication is observable
func (b *Broker) admit(ev *Event, pr *eventPrep, subs []*Subscription, detail bool, nowNS int64) (delivered, group int) {
	depth, group, res := tryPut(ev, pr, subs)
	if res == putFull {
		depth, group, res = b.overflow(ev, pr, subs, detail, nowNS)
	}
	if res == putFull {
		for _, s := range subs {
			s.lost(ev, nowNS, detail)
		}
	}
	if res != putOK {
		return 0, 0
	}
	for _, s := range subs {
		s.sent(ev, nowNS, uint64(depth))
	}
	if detail {
		b.rec.RecordAt(nowNS, telemetry.KindDeliver, ev.TraceID, ev.Seq,
			int64(subs[0].id), int64(depth), int64(len(subs)), 0)
	}
	return len(subs), group
}

// tryPut puts the element if its queue has room: the sink's put, or
// the channel's of its one subscription.
//
//pubsub:hotpath
func tryPut(ev *Event, pr *eventPrep, subs []*Subscription) (depth, group, res int) {
	if k := subs[0].sink; k != nil {
		return k.tryPut(ev, pr, subs)
	}
	return subs[0].tryPut(ev, pr)
}

// overflow applies the broker's policy to an element tryPut refused:
// DropOldest removes the oldest elements until it fits, booking their
// losses on the evicted events' traces; Block waits for room up to the
// timeout; CancelSlow evicts the subscriptions the element names. An
// element that stays out is putFull, for admit to book.
//
//pubsub:coldpath -- runs only when a queue is full; the steady state is tryPut's admission
func (b *Broker) overflow(ev *Event, pr *eventPrep, subs []*Subscription, detail bool, nowNS int64) (depth, group, res int) {
	s, k := subs[0], subs[0].sink // the queue: k, or s's channel when k is nil
	switch b.opts.Overflow {
	case DropOldest:
		// Each round removes an element or gets in (an empty queue admits
		// anything), so the loop ends whoever else runs beside it.
		for {
			var old Event
			var olds []*Subscription
			if k != nil {
				old, olds = k.popOldest()
			} else {
				old, olds = s.popOldest(subs)
			}
			for _, o := range olds {
				if !o.closed.Load() {
					o.lost(&old, nowNS, detail)
				}
			}
			if depth, group, res = tryPut(ev, pr, subs); res != putFull {
				return depth, group, res
			}
		}
	case Block:
		t := time.NewTimer(b.opts.BlockTimeout)
		defer t.Stop()
		if k != nil {
			return k.putWait(ev, pr, subs, t.C)
		}
		return s.putWait(ev, pr, t.C)
	case CancelSlow:
		for _, o := range subs {
			o.evict(ev, nowNS)
		}
	}
	return 0, 0, putFull
}

// tryPut sends ev if the channel has room, checked before the event is
// cloned; the send cannot then fail, as sendMu keeps the other
// publishers and the close out. A channel's group is its subscription.
//
//pubsub:hotpath
func (s *Subscription) tryPut(ev *Event, pr *eventPrep) (depth, group, res int) {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	if s.closed.Load() {
		return 0, 0, putClosed
	}
	if len(s.ch) == cap(s.ch) {
		return 0, 0, putFull
	}
	pr.materialize(ev)
	select {
	case s.ch <- *ev:
		return len(s.ch), 1, putOK
	default:
		return 0, 0, putFull
	}
}

// popOldest takes the oldest event off the channel, if any, with subs,
// the element of s it was queued as.
func (s *Subscription) popOldest(subs []*Subscription) (Event, []*Subscription) {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	if !s.closed.Load() {
		select {
		case old := <-s.ch:
			return old, subs
		default:
		}
	}
	return Event{}, nil
}

// putWait sends ev, waiting for room until deadline fires or the
// subscription is closed.
func (s *Subscription) putWait(ev *Event, pr *eventPrep, deadline <-chan time.Time) (depth, group, res int) {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	if s.closed.Load() {
		return 0, 0, putClosed
	}
	pr.materialize(ev)
	//pubsub:allow locksafe -- a bounded wait (the broker's BlockTimeout) under the per-subscription sendMu only; closeCh ends it through done before it takes sendMu
	select {
	case s.ch <- *ev:
		return len(s.ch), 1, putOK
	case <-s.done:
		return 0, 0, putClosed
	case <-deadline:
		return 0, 0, putFull
	}
}
