// Package broker provides a concurrent, in-process content-based
// publish-subscribe broker built on the library's matching index. It is
// the runtime a downstream application embeds: subscribers register
// rectangle predicates and receive matching events on a channel;
// publishers submit events as points in the event space.
//
// Index maintenance is incremental: new subscriptions enter an overlay
// matched like a tree's leaves and periodically folded into a rebuilt
// S-tree, so both subscribe and publish stay fast under churn.
//
// The publish path is lock-free and allocation-free in steady state:
// Publish matches against an immutable snapshot (base index + overlay)
// read through an atomic pointer, and index rebuilds run on a background
// goroutine that swaps a fresh snapshot in when done. See DESIGN.md for
// the snapshot semantics.
package broker

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flat"
	"repro/internal/geometry"
	"repro/internal/health"
	"repro/internal/invariant"
	"repro/internal/match"
	"repro/internal/stree"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

var errClosed = errors.New("broker: closed")

// Event is one published event as seen by a subscriber.
type Event struct {
	// Point is the event's location in the event space.
	Point geometry.Point
	// Payload is the opaque application payload.
	Payload []byte
	// Seq is the broker-assigned publication sequence number.
	Seq uint64
	// TraceID correlates this event with the publication's trace across
	// the flight recorder, sampled log lines and remote peers. Assigned at
	// ingest (PublishTraced's argument, or broker-generated); never 0.
	TraceID uint64
}

// OverflowPolicy selects what Publish does when a subscription's queue
// is full. It is the broker's (Options.Overflow), the same for every
// subscription.
type OverflowPolicy int

const (
	// DropNewest (the default) discards the incoming event. The
	// subscriber keeps its backlog; new data is lost while it is slow.
	DropNewest OverflowPolicy = iota
	// DropOldest evicts the oldest buffered event to make room for the
	// incoming one. The subscriber always sees the freshest events at
	// the cost of holes in the history.
	DropOldest
	// Block makes Publish wait up to the broker's BlockTimeout for
	// buffer space, then falls back to dropping the incoming event. It
	// trades publisher latency for fewer losses.
	Block
	// CancelSlow evicts the subscriber outright: its subscription is
	// cancelled (channel closed) the first time it overflows. Use it
	// when a stalled consumer must not be allowed to accumulate drops.
	CancelSlow
)

// String returns the policy's display name.
func (p OverflowPolicy) String() string {
	switch p {
	case DropNewest:
		return "drop-newest"
	case DropOldest:
		return "drop-oldest"
	case Block:
		return "block"
	case CancelSlow:
		return "cancel-slow"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParseOverflowPolicy converts a policy display name (as produced by
// String) back to the policy. It is the inverse used by CLI flags.
func ParseOverflowPolicy(s string) (OverflowPolicy, error) {
	for _, p := range []OverflowPolicy{DropNewest, DropOldest, Block, CancelSlow} {
		if s == p.String() {
			return p, nil
		}
	}
	return 0, fmt.Errorf("broker: unknown overflow policy %q (want %s)", s, policyNames)
}

// policyNames lists the valid policies for error messages.
const policyNames = "drop-newest, drop-oldest, block or cancel-slow"

// Options tune the broker. The zero value is usable.
type Options struct {
	// DefaultBuffer is the per-subscription channel capacity used by
	// Subscribe. Zero selects 16.
	DefaultBuffer int
	// Matcher tunes the S-trees a rebuild packs (branch factor, skew).
	// New panics on another Algorithm or an option stree.Build refuses.
	Matcher match.Options
	// Overflow is the overflow policy of every subscription, on a
	// channel or on a sink. New panics on a value that names no policy.
	Overflow OverflowPolicy
	// BlockTimeout bounds the Block policy's wait for buffer space.
	// Zero selects 50ms.
	BlockTimeout time.Duration
	// Metrics, when non-nil, receives the broker's metric families
	// (publish/match latency, fanout, drops by policy, queue gauges,
	// index traversal effort). Nil disables metrics at zero cost on the
	// publish path.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, samples publications 1 in N: each sampled
	// one is traced in the flight recorder like a wire-crossing one and
	// logged as one event rendered from its records. Nil disables
	// sampling.
	Tracer *telemetry.Tracer
	// Recorder receives compact flight-recorder records (one per
	// publish, plus per-stage detail for traced publications, evictions
	// and rebuilds). Nil selects the process-wide telemetry.Default()
	// recorder, so the flight recorder is always on; recording is
	// lock-free and allocation-free.
	Recorder *telemetry.Recorder
	// Log, when non-nil, makes every publication durable: it is appended
	// to the log — and, under the log's always policy, fsynced — before
	// any subscriber sees it, and the event's Seq becomes the
	// log-assigned offset, so Seq values survive restarts and can be
	// replayed with Log.ReadFrom. A failed append fails the Publish; the
	// publication is not delivered. The caller owns the log's lifetime
	// and closes it after the broker. Nil (the default) keeps the
	// original in-memory path bit-for-bit: no log, no fsync, Seq from a
	// process-local counter.
	Log *wal.Log
	// SlowLagThreshold flags a subscription as slow when an overflow
	// drop finds it at least this many events behind the broker head
	// (the WAL offset when durable, the Seq counter otherwise). A slow
	// transition bumps a counter and writes a slow_sub flight record;
	// the flag clears on the next successful delivery. Zero disables
	// detection.
	SlowLagThreshold uint64
	// SLO, when non-nil, receives every publication's end-to-end
	// publish latency (and every overflow drop as a bad event) for
	// multi-window burn-rate evaluation. Nil disables the feed at zero
	// cost on the publish path.
	SLO *health.SLO
}

// defaultMinOverlay is the overlay floor of the rebuild rule
// (rebuildDueLocked), which the bench harness's settled() copies.
// defaultStaleWindow is how long a due rebuild may wait before the
// "rebuilder" health check reports Degraded.
const (
	defaultMinOverlay  = 64
	defaultStaleWindow = 10 * time.Second
)

func (o Options) withDefaults() Options {
	if o.DefaultBuffer == 0 {
		o.DefaultBuffer = 16
	}
	if o.BlockTimeout == 0 {
		o.BlockTimeout = 50 * time.Millisecond
	}
	return o
}

// Stats is a snapshot of broker counters.
type Stats struct {
	Subscriptions int    // live subscriptions
	Rectangles    int    // live subscription rectangles
	Published     uint64 // events published
	Delivered     uint64 // events delivered to subscriber channels
	Dropped       uint64 // events dropped because a subscriber was slow
	Evicted       uint64 // subscriptions cancelled by the CancelSlow policy
	IndexRebuilds uint64
	// QueueHighWater is the deepest any subscription buffer has been
	// since the broker was created.
	QueueHighWater int
	// LastDrop is when the most recent overflow drop happened (zero if
	// none yet).
	LastDrop time.Time
}

// SubStats is a snapshot of one subscription's delivery counters.
type SubStats struct {
	Buffered  int       // events currently queued
	Capacity  int       // buffer capacity
	HighWater int       // deepest the buffer has been
	Dropped   uint64    // events lost to overflow on this subscription
	LastDrop  time.Time // most recent overflow drop (zero if none)
	Evicted   bool      // true once CancelSlow has evicted the subscriber
}

// overlay holds the rectangles registered since the last rebuild: a
// plane run the containment kernel matches 64 boxes at a time and, box
// for box, the subscription it belongs to, so Publish needs no map. A
// subscription's rectangles are always adjacent, in its own order.
type overlay struct {
	boxes flat.Boxes
	subs  []*Subscription
}

// add appends s's rectangles.
func (o *overlay) add(s *Subscription) {
	for _, r := range s.rects {
		o.boxes.Append(r)
		o.subs = append(o.subs, s)
	}
}

// keep returns a fresh overlay holding the subscriptions of o that f
// keeps, in order; o and its backing arrays are left as they are.
func (o *overlay) keep(f func(*Subscription) bool) overlay {
	var k overlay
	for i := 0; i < len(o.subs); i += len(o.subs[i].rects) {
		if f(o.subs[i]) {
			k.add(o.subs[i])
		}
	}
	return k
}

// snapshot is the immutable matching state read by Publish without a
// lock. Mutations never modify a published snapshot in place: Subscribe
// may append to the overlay's run and slice (readers are bounded by
// their own lengths), while Cancel and the rebuilder install a fresh
// overlay before storing a new snapshot.
type snapshot struct {
	// base indexes the rectangles present at the last rebuild, packed
	// in one or more parts. Their entry ids are slots into the one
	// slots table, not broker subscription ids, so matching needs no
	// map, and each subscription's slot is in exactly one part. nil
	// before the first rebuild. It may contain the rectangles of
	// subscriptions cancelled since; Cancel clears their slot in the
	// table, which the broker and all its snapshots share, so a stale
	// match finds nil and costs only its rectangle test.
	base  []part
	slots []atomic.Pointer[Subscription]
	// overlay holds rectangles registered since the last rebuild.
	overlay overlay
	// multiRect is true once any live-or-dead subscription registered
	// more than one rectangle, forcing target deduplication.
	multiRect bool
	// rects is the live rectangle count when the snapshot was stored,
	// the group size of a traced publication's decision record.
	rects int
}

// Broker routes published events to matching subscribers. Create one with
// New. All methods are safe for concurrent use.
type Broker struct {
	opts Options

	// mu guards the subscriptions and the index state below; the
	// publish path takes no lock and reads snap.
	mu     sync.RWMutex
	nextID int
	subs   map[int]*Subscription

	// The index: a packed base in one or more parts over one slot
	// table, plus the overlay of rectangles registered since the last
	// rebuild.
	base      []part                         // packed parts (may contain stale slots)
	slots     []atomic.Pointer[Subscription] // slot -> subscription for base's ids; nil once cancelled
	baseLen   int                            // rectangles in base (incl. stale)
	stale     int                            // rectangles in base whose subscription is gone
	overlay   overlay                        // recent rectangles, matched as a plane run
	multiRect bool                           // some subscription holds several rectangles

	rebuilding    bool // a rebuilder goroutine is running (rebuildLoop)
	lastRebuildNS atomic.Int64

	// nparts is how many parts a rebuild packs the base in once the
	// population reaches partMin (autoParallelMinRects; partsFor picks
	// nparts from GOMAXPROCS). Both are fixed by New.
	nparts  int
	partMin int
	tree    stree.Options // Options.Matcher as the rebuilt trees' options
	// minOverlay and staleWindow are defaultMinOverlay and
	// defaultStaleWindow; only package tests shrink them.
	minOverlay  int
	staleWindow time.Duration
	// work hands part i of a publication's snapshot to worker i; nil
	// without workers (always nil at index 0, the publisher's part).
	// Unbuffered: a successful send means the worker has taken exactly
	// that publication.
	work []chan *pubCtx

	// snap is the immutable matching state Publish reads without a
	// lock. nil once the broker is closed.
	snap atomic.Pointer[snapshot]

	// closed is set once, by Close, under mu: mutators and the
	// rebuilder check it under mu, the publish path reads it without.
	closed atomic.Bool

	// stop ends the part workers; wg waits for them and for a running
	// rebuilder in Close.
	stop chan struct{}
	wg   sync.WaitGroup

	ctxs sync.Pool // *pubCtx

	// sinks holds the open sinks at their Sink.idx; a closed sink's slot
	// is nil and reused. Guarded by mu.
	sinks []*Sink

	tel    *brokerTel
	tracer *telemetry.Tracer
	rec    *telemetry.Recorder
	log    *wal.Log    // nil unless durability is on
	slo    *health.SLO // nil unless an SLO objective is configured

	seq       atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64
	evicted   atomic.Uint64
	rebuilds  atomic.Uint64
	highWater atomic.Uint64
	lastDrop  atomic.Int64 // recorder-clock nanos of most recent drop
	// head is the highest sequence number assigned to any publication —
	// the WAL offset in durable mode, the Seq counter otherwise. Lag
	// reporting reads it without touching the WAL mutex.
	head atomic.Uint64
	// slowSubs counts subscriptions currently flagged slow;
	// slowTransitions counts healthy→slow flips since creation.
	slowSubs        atomic.Int64
	slowTransitions atomic.Uint64
	consumers       sync.WaitGroup
}

// New creates an empty broker. On several CPUs its rebuilds pack a
// large base in parts, and part workers take parts off the publisher.
func New(opts Options) *Broker {
	nparts := partsFor(runtime.GOMAXPROCS(0))
	return newBroker(opts, nparts, autoParallelMinRects, nparts > 1)
}

// newBroker is New with the part rule spelled out: rebuilds of at least
// partMin rectangles pack nparts parts, and workers says whether part
// workers start. Package tests call it to reach every arrangement on
// any machine at any population.
func newBroker(opts Options, nparts, partMin int, workers bool) *Broker {
	if opts.Overflow < DropNewest || opts.Overflow > CancelSlow {
		panic(fmt.Sprintf("broker: unknown overflow policy %d in Options.Overflow (want %s)", int(opts.Overflow), policyNames))
	}
	tree := stree.Options{BranchFactor: opts.Matcher.BranchFactor, Skew: opts.Matcher.Skew}
	if _, err := stree.Build(nil, tree); err != nil || opts.Matcher.Algorithm != match.AlgSTree {
		panic(fmt.Sprintf("broker: Options.Matcher %+v: a rebuild packs only S-trees stree.Build accepts (stree.Build: %v)", opts.Matcher, err))
	}
	b := &Broker{
		opts:        opts.withDefaults(),
		subs:        make(map[int]*Subscription),
		tracer:      opts.Tracer,
		rec:         opts.Recorder,
		log:         opts.Log,
		slo:         opts.SLO,
		stop:        make(chan struct{}),
		nparts:      nparts,
		partMin:     partMin,
		tree:        tree,
		minOverlay:  defaultMinOverlay,
		staleWindow: defaultStaleWindow,
	}
	if b.rec == nil {
		b.rec = telemetry.Default()
	}
	if b.log != nil {
		// Offsets already assigned by a previous process are the head a
		// resuming subscriber lags behind.
		b.head.Store(b.log.NextOffset() - 1)
	}
	b.snap.Store(&snapshot{})
	b.lastRebuildNS.Store(b.rec.Now())
	b.ctxs.New = func() any {
		return &pubCtx{res: make([]partResult, nparts), done: make(chan struct{}, 1)}
	}
	b.tel = newBrokerTel(b, opts.Metrics)
	if workers && nparts > 1 {
		// go statements allocate, so the workers start here, never on
		// the publish path.
		b.work = make([]chan *pubCtx, nparts)
		for i := 1; i < nparts; i++ {
			b.work[i] = make(chan *pubCtx)
			b.wg.Add(1)
			go b.partWorker(i)
		}
	}
	return b
}

// Subscription is one subscriber registration. Receive events from
// Events(); call Cancel when done.
type Subscription struct {
	id    int
	rects []geometry.Rect
	ch    chan Event // nil for a subscription registered on a sink
	// done is closed by closeCh before it takes sendMu, ending a Block
	// publisher's wait on ch; nil unless ch is and the policy is Block.
	done chan struct{}
	// sink, when non-nil, is the shared queue this subscription is
	// delivered through instead of ch; share is the buffer it added to
	// the sink's capacity.
	sink   *Sink
	b      *Broker
	once   sync.Once
	sendMu sync.Mutex // serialises deliveries with channel close
	// closed is set once, under sendMu when there is a channel to close;
	// the sink path, which takes no per-subscription lock, only reads it.
	closed   atomic.Bool
	evicting atomic.Bool
	// slow is set while the subscription sits past the broker's
	// SlowLagThreshold, flipped by drops and cleared by deliveries.
	slow      atomic.Bool
	dropCt    atomic.Uint64
	highWater atomic.Uint64
	lastDrop  atomic.Int64 // recorder-clock nanos
	// deliveredSeq is the highest Seq successfully enqueued on ch (the
	// broker head at creation before the first delivery); the gap to
	// the broker head is the subscription's lag in events.
	deliveredSeq atomic.Uint64
	// deliveredAtNS is the recorder-clock time of the last successful
	// enqueue (creation time before the first); its age is the
	// subscription's lag age while it is behind.
	deliveredAtNS atomic.Int64
	share         int32
	// slot says where the subscription's rectangles are: unpacked while
	// they are in the overlay, the subscription's index in the base's
	// slot table once a rebuild installs that table, and cancelled once
	// Cancel has removed it. Guarded by b.mu. The bools above leave room
	// for it in the 144-byte size class.
	slot int32
}

// The slot values that index no entry of the base's slot table: a new
// subscription is unpacked, and a rebuild that collected a subscription
// later cancelled installs a tombstone in its place.
const (
	unpacked  = -1
	cancelled = -2
)

// ID returns the broker-assigned subscription identifier.
func (s *Subscription) ID() int { return s.id }

// Events returns the channel on which matching events are delivered. The
// channel is closed by Cancel or by the broker's Close. A subscription
// registered on a sink (SubscribeOptions.Sink) has no channel of its
// own: Events returns nil, which blocks a receive forever, and its
// events are taken from the sink.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Dropped reports how many events were dropped because this
// subscription's buffer was full.
func (s *Subscription) Dropped() uint64 { return s.dropCt.Load() }

// Policy returns the subscription's overflow policy: the broker's.
func (s *Subscription) Policy() OverflowPolicy { return s.b.opts.Overflow }

// queue reports the deliveries buffered for the subscription, the room
// for them and the deepest the buffer has been: its channel's, or those
// of the sink it shares.
func (s *Subscription) queue() (buffered, capacity, highWater int) {
	if k := s.sink; k != nil {
		k.mu.Lock()
		defer k.mu.Unlock()
		return k.used, k.capacity, k.highWater
	}
	return len(s.ch), cap(s.ch), int(s.highWater.Load())
}

// Stats returns a snapshot of the subscription's delivery counters. On
// a sink subscription Buffered, Capacity and HighWater are the sink's,
// in deliveries for all of its subscriptions together.
func (s *Subscription) Stats() SubStats {
	st := SubStats{
		Dropped: s.dropCt.Load(),
		Evicted: s.evicting.Load(),
	}
	st.Buffered, st.Capacity, st.HighWater = s.queue()
	if ns := s.lastDrop.Load(); ns != 0 {
		st.LastDrop = s.b.rec.WallTime(ns)
	}
	return st
}

// raise lifts a to v unless it is already there or beyond: the
// monotonic max for marks that concurrent publishers advance out of
// order.
func raise(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// sent books a successful enqueue of ev, which left depth deliveries in
// the subscription's channel or sink: it advances the subscription's
// delivered offset (monotonically — concurrent publishers may land out
// of order), stamps the delivery time, clears a standing slow flag now
// that the subscription is keeping up, and raises the subscription and
// broker high-water marks. nowNS is a clock reading the publisher
// already holds (see admit); it is the delivery time and the stamp of
// the slow-flag record, so the success path adds no clock read. The
// traced deliver record belongs to the element ev arrived in, not to
// the subscription: admit writes it once.
func (s *Subscription) sent(ev *Event, nowNS int64, depth uint64) {
	b := s.b
	raise(&s.deliveredSeq, ev.Seq)
	s.deliveredAtNS.Store(nowNS)
	if s.slow.Load() && s.slow.CompareAndSwap(true, false) {
		b.slowSubs.Add(-1)
		b.rec.RecordAt(nowNS, telemetry.KindSlowSub, 0, ev.Seq,
			int64(s.id), 0, 0, int64(s.dropCt.Load()))
	}
	raise(&s.highWater, depth)
	raise(&b.highWater, depth)
}

// lost books the overflow loss of ev on this subscription (the incoming
// event, or an older one evicted to make room for it) and, when
// slow-subscriber detection is on, flags the subscription once its lag
// behind the broker head crosses the threshold.
func (s *Subscription) lost(ev *Event, nowNS int64, detail bool) {
	b := s.b
	s.dropCt.Add(1)
	s.lastDrop.Store(nowNS)
	b.dropped.Add(1)
	b.lastDrop.Store(nowNS)
	if b.tel != nil {
		b.tel.dropped.Inc()
	}
	// A dropped delivery consumes SLO error budget unconditionally.
	b.slo.ObserveBad()
	if thr := b.opts.SlowLagThreshold; thr > 0 {
		head := b.head.Load()
		seen := s.deliveredSeq.Load()
		if head > seen && head-seen >= thr && s.slow.CompareAndSwap(false, true) {
			b.slowSubs.Add(1)
			b.slowTransitions.Add(1)
			if b.tel != nil {
				b.tel.slowSubsTotal.Inc()
			}
			b.rec.RecordAt(nowNS, telemetry.KindSlowSub, 0, head,
				int64(s.id), int64(head-seen), 1, int64(s.dropCt.Load()))
		}
	}
	if detail {
		b.rec.RecordAt(nowNS, telemetry.KindDrop, ev.TraceID, ev.Seq, int64(s.id), int64(b.opts.Overflow), 0, 0)
	}
}

// evict cancels the subscription under the CancelSlow policy, once.
func (s *Subscription) evict(ev *Event, nowNS int64) {
	if !s.evicting.CompareAndSwap(false, true) {
		return
	}
	b := s.b
	b.evicted.Add(1)
	if b.tel != nil {
		b.tel.evicted.Inc()
	}
	// Evictions are rare and diagnostic gold: record them even for
	// untraced publications.
	b.rec.RecordAt(nowNS, telemetry.KindEvict, ev.TraceID, ev.Seq, int64(s.id), 0, 0, 0)
	// Publish takes no broker lock and Cancel does: evict from a fresh
	// goroutine.
	go s.Cancel()
}

// closeCh ends deliveries to the subscription. Its event channel is
// closed, serialised against in-flight deliveries so a concurrent
// Publish can never send on a closed channel — a publisher waiting under
// Block is woken first, so the close waits for no timeout; a sink
// subscription hands its share of the sink's capacity back instead.
// Callers guarantee it runs at most once (via s.once or the broker's
// closed flag).
func (s *Subscription) closeCh() {
	if s.sink != nil {
		s.closed.Store(true)
		_ = s.sink.resize(-int(s.share), -1) // a release cannot fail
		return
	}
	if s.done != nil {
		close(s.done)
	}
	s.sendMu.Lock()
	s.closed.Store(true)
	close(s.ch)
	s.sendMu.Unlock()
}

// Cancel removes the subscription and closes its channel. It is
// idempotent and safe to call concurrently with Publish.
func (s *Subscription) Cancel() {
	s.once.Do(func() {
		b := s.b
		b.mu.Lock()
		if _, live := b.subs[s.id]; !live {
			b.mu.Unlock()
			return // broker already closed (channel closed there)
		}
		delete(b.subs, s.id)
		// Rectangles indexed in the base become stale; overlay entries
		// are removed eagerly. A subscription's rectangles are all in one
		// or the other, and its slot says which. The overlay is rebuilt
		// from the entries it keeps — never cut in place — because
		// published snapshots still read the old run; cancelling a base
		// subscription leaves it as it is.
		if invariant.Enabled {
			invariant.Assertf(slices.Contains(b.overlay.subs, s) == (s.slot == unpacked),
				"subscription %d at slot %d is not where its slot says", s.id, s.slot)
		}
		if s.slot == unpacked {
			b.overlay = b.overlay.keep(func(o *Subscription) bool { return o != s })
		} else {
			// The base keeps the rectangles but not the subscription:
			// its slot becomes a tombstone in the table every snapshot
			// shares, so nothing in the broker keeps s or its queue
			// alive and no publish reaches it again.
			b.stale += len(s.rects)
			b.slots[s.slot].Store(nil)
		}
		s.slot = cancelled
		b.publishSnapshotLocked()
		b.maybeTriggerRebuildLocked()
		b.mu.Unlock()
		s.closeCh()
	})
}

// SubscribeOptions tune one subscription: its buffer and the queue it
// is delivered through. The zero value inherits the broker defaults; the
// overflow policy and block timeout are always the broker's
// (Options.Overflow, Options.BlockTimeout).
type SubscribeOptions struct {
	// Buffer is the event channel capacity. Zero selects the broker's
	// DefaultBuffer; negative is invalid.
	Buffer int
	// Sink, when non-nil, registers the subscription on that sink of this
	// broker: it gets no channel, its events are put into the sink
	// together with those of the sink's other subscriptions, and Buffer is
	// what it adds to the sink's capacity.
	Sink *Sink
}

// Subscribe registers a subscriber for the union of the given rectangles,
// using the default channel buffer. At least one non-empty rectangle is
// required.
func (b *Broker) Subscribe(rects ...geometry.Rect) (*Subscription, error) {
	return b.SubscribeWith(SubscribeOptions{}, rects...)
}

// SubscribeWith is Subscribe with a chosen buffer, or on a sink.
func (b *Broker) SubscribeWith(opts SubscribeOptions, rects ...geometry.Rect) (*Subscription, error) {
	if len(rects) == 0 {
		return nil, fmt.Errorf("broker: subscription needs at least one rectangle")
	}
	if opts.Buffer < 0 {
		return nil, fmt.Errorf("broker: buffer must be >= 0, got %d", opts.Buffer)
	}
	if k := opts.Sink; k != nil && k.b != b {
		return nil, fmt.Errorf("broker: a sink subscription needs a sink of its broker")
	}
	owned := make([]geometry.Rect, len(rects))
	for i, r := range rects {
		if r.Empty() {
			return nil, fmt.Errorf("broker: rectangle %d is empty", i)
		}
		// The bound a publication's point has in the durable log: no
		// event could reach a rectangle past it.
		if r.Dims() > wal.MaxPointDims {
			return nil, fmt.Errorf("broker: rectangle %d has %d dimensions (max %d)", i, r.Dims(), wal.MaxPointDims)
		}
		owned[i] = r.Clone()
	}

	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed.Load() {
		return nil, errClosed
	}
	buffer := opts.Buffer
	if buffer == 0 {
		buffer = b.opts.DefaultBuffer
	}
	s := &Subscription{id: b.nextID, rects: owned, b: b, slot: unpacked}
	if k := opts.Sink; k != nil {
		if err := k.resize(buffer, 1); err != nil {
			return nil, err
		}
		s.sink, s.share = k, int32(buffer)
	} else {
		s.ch = make(chan Event, buffer)
		if b.opts.Overflow == Block {
			s.done = make(chan struct{})
		}
	}
	// A new subscription starts with zero lag: it is only behind events
	// published after this point.
	s.deliveredSeq.Store(b.head.Load())
	s.deliveredAtNS.Store(b.rec.Now())
	b.nextID++
	b.subs[s.id] = s
	if len(owned) > 1 {
		b.multiRect = true
	}
	// Appending to the overlay is safe with live snapshots: readers are
	// bounded by their snapshot's lengths.
	b.overlay.add(s)
	b.publishSnapshotLocked()
	b.maybeTriggerRebuildLocked()
	return s, nil
}

// Stats returns a snapshot of broker counters.
func (b *Broker) Stats() Stats {
	b.mu.RLock()
	defer b.mu.RUnlock()
	published := b.seq.Load()
	if b.log != nil {
		// Durable mode: offsets are the publication count, and they
		// survive restarts where the in-memory counter does not.
		published = b.log.NextOffset() - 1
	}
	st := Stats{
		Subscriptions:  len(b.subs),
		Rectangles:     b.rectanglesLocked(),
		Published:      published,
		Delivered:      b.delivered.Load(),
		Dropped:        b.dropped.Load(),
		Evicted:        b.evicted.Load(),
		IndexRebuilds:  b.rebuilds.Load(),
		QueueHighWater: int(b.highWater.Load()),
	}
	if ns := b.lastDrop.Load(); ns != 0 {
		st.LastDrop = b.rec.WallTime(ns)
	}
	return st
}

// Log returns the durable publication log the broker appends to, or
// nil when durability is off.
func (b *Broker) Log() *wal.Log { return b.log }

// Close shuts the broker down: all subscription channels are closed and
// further Publish/Subscribe calls fail. It waits for the background
// goroutines (the rebuilder and the part workers, if started) to exit.
// It is idempotent.
func (b *Broker) Close() {
	b.mu.Lock()
	if b.closed.Load() {
		b.mu.Unlock()
		return
	}
	b.closed.Store(true)
	close(b.stop)
	for id, s := range b.subs {
		s.closeCh()
		delete(b.subs, id)
	}
	b.base, b.slots, b.baseLen, b.stale = nil, nil, 0, 0
	b.overlay = overlay{}
	b.snap.Store(nil)
	b.mu.Unlock()
	// Outside the lock: the rebuilder re-acquires b.mu before touching
	// state and exits on closed; part workers finish their in-flight job
	// and exit on the closed stop channel.
	b.wg.Wait()
}

// SubscribeFunc registers a subscription whose events are delivered by
// calling fn from a broker-managed goroutine, in order. The consumer
// goroutine exits when the subscription is cancelled or the broker
// closes. fn must not block indefinitely: while it runs, events queue in
// the subscription buffer and overflow is dropped like any slow
// subscriber's.
func (b *Broker) SubscribeFunc(fn func(Event), rects ...geometry.Rect) (*Subscription, error) {
	if fn == nil {
		return nil, fmt.Errorf("broker: nil handler")
	}
	s, err := b.Subscribe(rects...)
	if err != nil {
		return nil, err
	}
	b.consumers.Add(1)
	go func() {
		defer b.consumers.Done()
		for ev := range s.ch {
			fn(ev)
		}
	}()
	return s, nil
}

// WaitConsumers blocks until every SubscribeFunc consumer goroutine has
// exited (i.e. after Close or after cancelling their subscriptions).
// Useful in tests and orderly shutdown paths.
func (b *Broker) WaitConsumers() { b.consumers.Wait() }
