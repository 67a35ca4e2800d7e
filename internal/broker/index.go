package broker

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/invariant"
	"repro/internal/stree"
	"repro/internal/telemetry"
)

// autoParallelMinRects is the live-rectangle population from which a
// rebuild packs the base in several parts, which the publisher then
// offers to the part workers. Below it the per-publish hand-off costs
// more than the matching it overlaps; the value comes from the
// BenchmarkPublishParts table in DESIGN.md §14.
const autoParallelMinRects = 32768

// maxParts caps partsFor: the rule was measured on two CPUs only, so it
// is not carried past four.
const maxParts = 8

// partsFor is how many parts a rebuild packs a population of at least
// autoParallelMinRects rectangles in on procs CPUs: one on one CPU, where
// nothing could run them in parallel, twice the CPUs otherwise — on two
// CPUs four parts beat two, three and eight (DESIGN.md §14).
func partsFor(procs int) int {
	if procs <= 1 {
		return 1
	}
	return min(2*procs, maxParts)
}

// publishSnapshotLocked stores a fresh immutable snapshot of the
// current matching state. Caller holds b.mu.
func (b *Broker) publishSnapshotLocked() {
	b.snap.Store(&snapshot{
		base:      b.base,
		slots:     b.slots,
		overlay:   b.overlay,
		multiRect: b.multiRect,
		rects:     b.rectanglesLocked(),
	})
}

// rebuildDueLocked reports whether the overlay (or the stale fraction
// of the base) has grown past the rebuild thresholds: more than
// minOverlay overlay rectangles and more than a quarter of the base, or
// more than half the base stale. Caller holds b.mu.
func (b *Broker) rebuildDueLocked() bool {
	overlayBig := len(b.overlay.subs) > b.minOverlay && len(b.overlay.subs)*4 > b.baseLen
	staleBig := b.stale*2 > b.baseLen && b.stale > 0
	return overlayBig || staleBig
}

// maybeTriggerRebuildLocked kicks the background rebuilder when the
// thresholds are crossed. The rebuild itself runs outside the lock;
// concurrent triggers coalesce into at most one pending run. Caller
// holds b.mu (mutations only — never the publish path), so the
// goroutine can never start after Close set b.closed.
func (b *Broker) maybeTriggerRebuildLocked() {
	if !b.rebuildDueLocked() {
		return
	}
	if !b.rebuilderOn {
		b.rebuilderOn = true
		b.wg.Add(1)
		go b.rebuildLoop()
	}
	select {
	case b.rebuildCh <- struct{}{}:
	default: // a rebuild is already pending; coalesce
	}
}

// rebuildLoop is the background rebuilder goroutine, started lazily on
// the first trigger and stopped by Close.
func (b *Broker) rebuildLoop() {
	defer b.wg.Done()
	for {
		select {
		case <-b.stop:
			return
		case <-b.rebuildCh:
			b.rebuild()
		}
	}
}

// rebuild folds the overlay into a freshly packed base. The expensive
// packing runs outside b.mu; churn that lands during it is reconciled
// at install time: subscriptions created after the collection cut stay
// in the overlay, and ones cancelled since the collection leave their
// rectangles stale in the new base and a tombstone in its slot table.
//
// The base is packed in one part, or — from autoParallelMinRects live
// rectangles on a broker with several CPUs — in b.nparts parts packed
// concurrently, over one slot table. A part holds the slots of a
// contiguous run of near-equal length, every rectangle of a
// subscription with it, so no subscription is in two parts and
// deduplicating within a part is complete.
func (b *Broker) rebuild() {
	if job := b.collect(); job != nil {
		b.build(job)
	}
}

// rebuildJob is what a rebuild collected under b.mu: the live
// subscriptions in slot order, the nextID of the collection cut, and
// their rectangle count.
type rebuildJob struct {
	slots []*Subscription
	cut   int
	rects int
}

// collect opens a rebuild's collect→install window and returns what to
// pack, or nil when there is nothing to pack: the broker is closed, the
// thresholds no longer hold, or the last subscription is gone.
func (b *Broker) collect() *rebuildJob {
	b.mu.Lock()
	// Re-check the thresholds under the lock: a coalesced trigger may
	// have been satisfied by the previous pass already.
	if b.closed.Load() || !b.rebuildDueLocked() {
		b.mu.Unlock()
		return nil
	}
	if len(b.subs) == 0 {
		// The last subscription is gone and the base is all stale.
		// Install the empty state under this same lock hold — no build
		// needed — so the packed parts, the slot table and the old
		// overlay's backing array are released instead of staying
		// pinned by a permanently stale snapshot, and the rebuilder
		// goes idle.
		b.base, b.slots, b.baseLen, b.stale = nil, nil, 0, 0
		b.overlay, b.baseCut = overlay{}, b.nextID
		b.publishSnapshotLocked()
		b.mu.Unlock()
		b.finishRebuild(0, 0, b.rec.Now())
		return nil
	}
	// The live subscriptions in a deterministic order: the previous
	// base's, less those cancelled since (Cancel clears their slots
	// under this lock), then the overlay's, which holds only live ones.
	// Every live subscription is in exactly one of the two, so one
	// Subscribe and Cancel sequence always packs the same trees.
	job := &rebuildJob{slots: make([]*Subscription, 0, len(b.subs)), cut: b.nextID, rects: b.rectanglesLocked()}
	for i := range b.slots {
		if s := b.slots[i].Load(); s != nil {
			job.slots = append(job.slots, s)
		}
	}
	for i := 0; i < len(b.overlay.subs); i += len(b.overlay.subs[i].rects) {
		job.slots = append(job.slots, b.overlay.subs[i])
	}
	invariant.Assertf(len(job.slots) == len(b.subs), "rebuild lists %d slots for %d live subscriptions", len(job.slots), len(b.subs))
	b.rebuilding = true
	b.rebuildCut = job.cut
	b.pendingStale = 0
	b.mu.Unlock()
	return job
}

// build packs job outside b.mu and installs the new base, closing the
// window collect opened. A subscription cancelled inside the window
// gets a tombstone in the new slot table, never its pointer.
func (b *Broker) build(job *rebuildJob) {
	slots := job.slots
	r0 := b.rec.Now()
	n := 1
	if job.rects >= b.partMin {
		n = min(b.nparts, len(slots))
	}
	base := make([]part, n)
	var wg sync.WaitGroup
	for k := range base {
		lo, hi := k*len(slots)/n, (k+1)*len(slots)/n
		if k == n-1 {
			base[k] = packPart(slots, lo, hi, b.tree)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			base[k] = packPart(slots, lo, hi, b.tree)
		}()
	}
	wg.Wait()
	table := make([]atomic.Pointer[Subscription], len(slots))

	b.mu.Lock()
	b.rebuilding = false
	if b.closed.Load() {
		b.mu.Unlock()
		return
	}
	for i, s := range slots {
		if s.slot != cancelled {
			s.slot = int32(i)
			table[i].Store(s)
		}
	}
	b.overlay = b.overlay.keep(func(s *Subscription) bool { return s.id >= job.cut })
	b.base, b.baseCut = base, job.cut
	b.slots = table
	b.baseLen = job.rects
	b.stale = b.pendingStale
	b.pendingStale = 0
	b.publishSnapshotLocked()
	overlayLeft := len(b.overlay.subs)
	// Churn during the build may already warrant another pass.
	again := b.rebuildDueLocked()
	b.mu.Unlock()

	b.finishRebuild(job.rects, overlayLeft, r0)
	if again {
		select {
		case b.rebuildCh <- struct{}{}:
		default:
		}
	}
}

// part is one part of the packed base: an S-tree per dimensionality
// among its rectangles, ascending.
type part []*stree.Tree

// packPart packs the rectangles of slots[lo:hi] into one part whose
// entry ids are those slots. A subscription's rectangles are immutable,
// so this needs no lock; New checked the options and Subscribe the
// rectangles, so no build fails. The stable sort keeps slot order within
// a dimensionality: one dimensionality packs its entries in slot order.
func packPart(slots []*Subscription, lo, hi int, opts stree.Options) (p part) {
	rects := 0
	for _, s := range slots[lo:hi] {
		rects += len(s.rects)
	}
	entries := make([]stree.Entry, 0, rects)
	for slot := lo; slot < hi; slot++ {
		for _, r := range slots[slot].rects {
			entries = append(entries, stree.Entry{Rect: r, ID: slot})
		}
	}
	slices.SortStableFunc(entries, func(x, y stree.Entry) int { return x.Rect.Dims() - y.Rect.Dims() })
	for len(entries) > 0 {
		next := entries[0].Rect.Dims() + 1
		n, _ := slices.BinarySearchFunc(entries, next, func(e stree.Entry, d int) int { return e.Rect.Dims() - d })
		p = append(p, stree.MustBuild(entries[:n], opts))
		entries = entries[n:]
	}
	return p
}

// finishRebuild bumps the rebuild counters and writes the rebuild
// flight record (seq 0: rebuilds have no publication sequence). r0 is
// when the build began on the recorder clock, the broker's only clock.
func (b *Broker) finishRebuild(entries, overlayLeft int, r0 int64) {
	total := b.rebuilds.Add(1)
	now := b.rec.Now()
	b.lastRebuildNS.Store(now)
	b.rec.RecordAt(now, telemetry.KindRebuild, 0, 0,
		int64(entries), int64(overlayLeft), now-r0, int64(total))
	if b.tel != nil {
		b.tel.rebuilds.Inc()
		b.tel.rebuildLatency.ObserveDuration(time.Duration(now - r0))
	}
}

// rectanglesLocked is the live rectangle count derived from the index
// bookkeeping. Caller holds b.mu. The invariant
// baseLen - stale + len(overlay) == Σ len(s.rects) over b.subs holds at
// every instant, including mid-rebuild (the churn test asserts it).
func (b *Broker) rectanglesLocked() int {
	return b.baseLen - b.stale + len(b.overlay.subs)
}

// ShardStat is the index's introspection snapshot, surfaced by
// Broker.ShardStats, embedded in IndexReport and read by the rebuilder
// health check and the bench harness. The broker has one index, packed
// in parts; the type keeps its name because the harness reads it.
type ShardStat struct {
	Subscriptions int `json:"subscriptions"`
	Rectangles    int `json:"rectangles"`
	// Base/Overlay/Stale describe the compiled snapshot: rectangles in
	// the packed base, all parts together (including stale ones),
	// rectangles still in the append-only overlay awaiting a rebuild,
	// and base slots whose subscription is gone.
	BaseLen    int  `json:"base_len"`
	OverlayLen int  `json:"overlay_len"`
	Stale      int  `json:"stale"`
	MultiRect  bool `json:"multi_rect"`
	// Rebuilding is true while a collect→install window is open.
	Rebuilding bool `json:"rebuilding"`
	// RebuildDue says the overlay or the stale share of the base has
	// passed the rebuild thresholds (rebuildDueLocked).
	RebuildDue bool   `json:"rebuild_due"`
	Rebuilds   uint64 `json:"rebuilds"`
	// SecondsSinceRebuild is the age of the last rebuild install
	// (broker creation before the first).
	SecondsSinceRebuild float64 `json:"seconds_since_rebuild"`
}

// statLocked fills the index's stat, the one place it is counted.
// Caller holds b.mu.
func (b *Broker) statLocked() ShardStat {
	nowNS := b.rec.Now()
	return ShardStat{
		Subscriptions:       len(b.subs),
		Rectangles:          b.rectanglesLocked(),
		BaseLen:             b.baseLen,
		OverlayLen:          len(b.overlay.subs),
		Stale:               b.stale,
		MultiRect:           b.multiRect,
		Rebuilding:          b.rebuilding,
		RebuildDue:          b.rebuildDueLocked(),
		Rebuilds:            b.rebuilds.Load(),
		SecondsSinceRebuild: time.Duration(nowNS - b.lastRebuildNS.Load()).Seconds(),
	}
}

// ShardStats returns the index's stat as a one-entry slice.
func (b *Broker) ShardStats() []ShardStat {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return []ShardStat{b.statLocked()}
}

// parts is how many parts a publication against s runs, at least 1:
// before the first rebuild the overlay is the one part.
func (s *snapshot) parts() int { return max(1, len(s.base)) }

// numParts is the current snapshot's parts (1 once the broker is closed).
func (b *Broker) numParts() int {
	if snap := b.snap.Load(); snap != nil {
		return snap.parts()
	}
	return 1
}
