package broker

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/match"
	"repro/internal/telemetry"
)

// maxShards caps Options.Shards. Beyond a few hundred shards the
// per-publish fan-out cost dominates any rebuild-size win.
const maxShards = 256

// shardIndex maps a subscription id to its shard using the splitmix64
// finalizer: sequential ids spread uniformly, so shard load stays
// balanced without coordination, and the mapping is stable for the life
// of the broker (a subscription's rectangles never move between
// shards). The hash seam is where a later spatial split — partitioning
// by the highest-selectivity dimension from Index.PointQueryStats —
// would plug in.
func shardIndex(id, n int) int {
	if n <= 1 {
		return 0
	}
	x := uint64(id)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}

// shard is one slice of the subscription space: the PR-4
// snapshot/overlay/rebuilder machinery replicated so rebuild cost and
// snapshot size scale with subs/N instead of total subs. All of a
// subscription's rectangles live in exactly one shard (shardIndex of
// its id), so per-shard target deduplication is complete deduplication
// and the cross-shard merge is pure concatenation.
//
// Lock order: b.mu before sh.mu. The publish path takes neither — it
// reads sh.snap; the rebuilder takes only sh.mu.
type shard struct {
	b   *Broker
	idx int

	// work hands publications to this shard's worker; nil when the
	// broker runs without workers (and always for shard 0, which the
	// publisher keeps). Unbuffered: a successful send means the worker
	// has taken exactly that publication.
	work chan *pubCtx

	mu        sync.Mutex
	subs      map[int]*Subscription
	maxID     int             // one past the largest id ever assigned here (rebuild cut)
	base      match.Matcher   // slot-indexed rectangles (may contain stale slots)
	slots     []*Subscription // slot -> subscription for base's ids
	baseLen   int             // rectangles in base (incl. stale)
	stale     int             // rectangles in base whose subscription is gone
	overlay   overlay         // recent rectangles, matched as a plane run
	multiRect bool            // some subscription in this shard holds several rectangles

	// Background rebuilder state (same reconciliation protocol as the
	// pre-shard broker, now per shard and guarded by sh.mu).
	rebuilderOn  bool // rebuilder goroutine started
	rebuilding   bool // a collect→install window is open
	rebuildCut   int  // maxID captured at collection time
	pendingStale int  // rects of subs cancelled during the build

	// rebuildCh has capacity 1 so churn coalesces into at most one
	// pending rebuild behind the in-flight one.
	rebuildCh chan struct{}

	// snap is the immutable matching state Publish reads without a
	// lock. nil once the broker is closed.
	snap atomic.Pointer[snapshot]

	rebuilds      atomic.Uint64
	lastRebuildNS atomic.Int64

	// Cumulative match cost attributed to this shard (recorder-clock
	// nanoseconds), accumulated per publish when metrics are on. The
	// imbalance gauge reads max/mean across shards.
	matchNS atomic.Int64
}

func newShard(b *Broker, idx int) *shard {
	sh := &shard{
		b:         b,
		idx:       idx,
		subs:      make(map[int]*Subscription),
		rebuildCh: make(chan struct{}, 1),
	}
	sh.snap.Store(&snapshot{})
	sh.lastRebuildNS.Store(b.rec.Now())
	return sh
}

// publishSnapshotLocked stores a fresh immutable snapshot of the
// shard's current matching state. Caller holds sh.mu.
func (sh *shard) publishSnapshotLocked() {
	sh.snap.Store(&snapshot{
		base:      sh.base,
		slots:     sh.slots,
		overlay:   sh.overlay,
		multiRect: sh.multiRect,
	})
}

// rebuildDueLocked reports whether the shard's overlay (or the stale
// fraction of its base) has grown past the rebuild thresholds. Caller
// holds sh.mu.
func (sh *shard) rebuildDueLocked() bool {
	overlayBig := len(sh.overlay.subs) > sh.b.opts.MinOverlay && len(sh.overlay.subs)*4 > sh.baseLen
	staleBig := sh.stale*2 > sh.baseLen && sh.stale > 0
	return overlayBig || staleBig
}

// maybeTriggerRebuildLocked kicks the shard's background rebuilder when
// its thresholds are crossed. The rebuild itself runs outside the lock;
// concurrent triggers coalesce into at most one pending run. Caller
// holds b.mu and sh.mu (mutations only — never the publish path), so
// the goroutine can never start after Close set b.closed.
func (b *Broker) maybeTriggerRebuildLocked(sh *shard) {
	if !sh.rebuildDueLocked() {
		return
	}
	if !sh.rebuilderOn {
		sh.rebuilderOn = true
		b.wg.Add(1)
		go b.shardRebuildLoop(sh)
	}
	select {
	case sh.rebuildCh <- struct{}{}:
	default: // a rebuild is already pending; coalesce
	}
}

// shardRebuildLoop is one shard's background rebuilder goroutine,
// started lazily on the shard's first trigger and stopped by Close.
func (b *Broker) shardRebuildLoop(sh *shard) {
	defer b.wg.Done()
	for {
		select {
		case <-b.stop:
			return
		case <-sh.rebuildCh:
			b.rebuildShard(sh)
		}
	}
}

// rebuildShard folds the shard's overlay into a freshly packed base
// index. The expensive match.New build runs outside sh.mu; churn that
// lands during the build is reconciled at install time: subscriptions
// created after the collection cut stay in the overlay, and ones
// cancelled since the collection leave their rectangles stale in the
// new base.
func (b *Broker) rebuildShard(sh *shard) {
	sh.mu.Lock()
	if b.closed.Load() {
		sh.mu.Unlock()
		return
	}
	// Re-check the thresholds under the lock: a coalesced trigger may
	// have been satisfied by the previous pass already.
	if !sh.rebuildDueLocked() {
		sh.mu.Unlock()
		return
	}
	if len(sh.subs) == 0 {
		// Rebalance: the shard's last subscription is gone and its base
		// is all stale. Install the empty state under this same lock
		// hold — no build needed — so the packed index, the slot table
		// and the old overlay backing array are released instead of
		// staying pinned by a permanently-stale snapshot, and the
		// rebuilder goes idle.
		sh.base, sh.slots, sh.baseLen, sh.stale = nil, nil, 0, 0
		sh.overlay = overlay{}
		sh.publishSnapshotLocked()
		sh.mu.Unlock()
		sh.finishRebuild(0, 0, b.rec.Now())
		return
	}
	cut := sh.maxID
	slots := make([]*Subscription, 0, len(sh.subs))
	entries := make([]match.Subscription, 0, sh.rectanglesLocked())
	for _, s := range sh.subs {
		slot := len(slots)
		slots = append(slots, s)
		for _, r := range s.rects {
			entries = append(entries, match.Subscription{Rect: r, SubscriberID: slot})
		}
	}
	sh.rebuilding = true
	sh.rebuildCut = cut
	sh.pendingStale = 0
	sh.mu.Unlock()

	r0 := b.rec.Now()
	idx, err := match.New(entries, b.opts.Matcher)
	if err != nil {
		// Mixed dimensionalities across subscriptions make a tree index
		// impossible; fall back to linear matching.
		idx = match.BruteForce(entries)
	}

	sh.mu.Lock()
	sh.rebuilding = false
	if b.closed.Load() {
		sh.mu.Unlock()
		return
	}
	sh.overlay = sh.overlay.keep(func(s *Subscription) bool { return s.id >= cut })
	sh.base = idx
	sh.slots = slots
	sh.baseLen = len(entries)
	sh.stale = sh.pendingStale
	sh.pendingStale = 0
	sh.publishSnapshotLocked()
	overlayLeft := len(sh.overlay.subs)
	// Churn during the build may already warrant another pass.
	again := sh.rebuildDueLocked()
	sh.mu.Unlock()

	sh.finishRebuild(len(entries), overlayLeft, r0)
	if again {
		select {
		case sh.rebuildCh <- struct{}{}:
		default:
		}
	}
}

// finishRebuild bumps the shard and broker rebuild counters and writes
// the rebuild flight record (the record's seq field carries the shard
// index — rebuilds have no publication sequence). r0 is when the build
// began on the recorder clock, the broker's only clock.
func (sh *shard) finishRebuild(entries, overlayLeft int, r0 int64) {
	b := sh.b
	sh.rebuilds.Add(1)
	total := b.rebuilds.Add(1)
	now := b.rec.Now()
	sh.lastRebuildNS.Store(now)
	b.rec.RecordAt(now, telemetry.KindRebuild, 0, uint64(sh.idx),
		int64(entries), int64(overlayLeft), now-r0, int64(total))
	if b.tel != nil {
		b.tel.rebuilds.Inc()
		b.tel.shardRebuilds[sh.idx].Inc()
		b.tel.rebuildLatency.ObserveDuration(time.Duration(now - r0))
	}
}

// rectanglesLocked is the shard's live rectangle count derived from the
// snapshot bookkeeping. Caller holds sh.mu. The invariant
// baseLen - stale + len(overlay) == Σ len(s.rects) over sh.subs holds
// at every instant, including mid-rebuild (the churn test asserts it).
func (sh *shard) rectanglesLocked() int {
	return sh.baseLen - sh.stale + len(sh.overlay.subs)
}

// ShardStat is one shard's introspection snapshot, surfaced by
// Broker.ShardStats and IndexReport.
type ShardStat struct {
	Shard         int  `json:"shard"`
	Subscriptions int  `json:"subscriptions"`
	Rectangles    int  `json:"rectangles"`
	BaseLen       int  `json:"base_len"`
	OverlayLen    int  `json:"overlay_len"`
	Stale         int  `json:"stale"`
	MultiRect     bool `json:"multi_rect,omitempty"`
	// Rebuilding is true while the shard's collect→install window is
	// open.
	Rebuilding bool   `json:"rebuilding,omitempty"`
	Rebuilds   uint64 `json:"rebuilds"`
	// SecondsSinceRebuild is the age of the shard's last rebuild
	// install (broker creation before the first).
	SecondsSinceRebuild float64 `json:"seconds_since_rebuild"`
}

// snapshotStat reads one shard's stat under its lock.
func (sh *shard) snapshotStat() ShardStat {
	nowNS := sh.b.rec.Now()
	sh.mu.Lock()
	st := ShardStat{
		Shard:         sh.idx,
		Subscriptions: len(sh.subs),
		Rectangles:    sh.rectanglesLocked(),
		BaseLen:       sh.baseLen,
		OverlayLen:    len(sh.overlay.subs),
		Stale:         sh.stale,
		MultiRect:     sh.multiRect,
		Rebuilding:    sh.rebuilding,
		Rebuilds:      sh.rebuilds.Load(),
	}
	sh.mu.Unlock()
	st.SecondsSinceRebuild = time.Duration(nowNS - sh.lastRebuildNS.Load()).Seconds()
	return st
}

// ShardStats returns one stat per shard.
func (b *Broker) ShardStats() []ShardStat {
	out := make([]ShardStat, len(b.shards))
	for i, sh := range b.shards {
		out[i] = sh.snapshotStat()
	}
	return out
}

// NumShards returns how many subscription shards the broker runs.
func (b *Broker) NumShards() int { return len(b.shards) }
