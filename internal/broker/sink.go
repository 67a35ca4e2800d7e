package broker

import (
	"errors"
	"slices"
	"sync"
	"time"
)

// Delivery is one publication as a sink's consumer takes it: the event
// and the ids of the sink's subscriptions it was delivered to.
type Delivery struct {
	Event Event
	IDs   []int
}

// Sink is a bounded delivery queue shared by many subscriptions (a wire
// connection's). The publish path puts one element per publication into
// it — the event and every matched subscription registered on it — where
// channel subscriptions cost a send each. Capacity counts deliveries (an
// element of k subscriptions is k) and is the sum of the registered
// subscriptions' buffers; the broker's overflow policy applies to the
// element as a whole; accounting stays per subscription. Create with
// NewSink, register with SubscribeOptions.Sink, consume with Ready/Next.
type Sink struct {
	b     *Broker
	idx   int           // slot in b.sinks: what matchScratch groups targets by
	ready chan struct{} // capacity 1: a token while there may be something to take

	mu        sync.Mutex // never held across a wait, a blocking send or a clock read
	ring      []sinkElem // circular, a power of two long; slots keep their lists' storage
	head, n   int
	used      int // deliveries queued
	capacity  int
	subs      int // subscriptions registered: |S_q|
	highWater int
	closed    bool
	room      chan struct{} // closed and replaced by the pop that finds a Block publisher waiting
	waiting   bool
}

// sinkElem is one goroutine's share of a publication.
type sinkElem struct {
	ev   Event
	subs []*Subscription
}

// NewSink creates an empty sink; each subscription registered on it adds
// its buffer to the capacity. Close it when its consumer is done.
func (b *Broker) NewSink() *Sink {
	k := &Sink{b: b, ready: make(chan struct{}, 1), room: make(chan struct{})}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed.Load() {
		k.closed = true
		close(k.ready)
		return k
	}
	if k.idx = slices.Index(b.sinks, nil); k.idx < 0 {
		k.idx = len(b.sinks)
		b.sinks = append(b.sinks, nil)
	}
	b.sinks[k.idx] = k
	return k
}

// Ready delivers a token when the queue turns non-empty — the consumer
// then calls Next until it reports false — and is closed by Close.
func (k *Sink) Ready() <-chan struct{} { return k.ready }

// Close stops deliveries into the sink (a publication matching one of
// its subscriptions is then neither delivered nor counted dropped) and
// frees its slot. What is queued stays for Next: a consumer that finds
// Ready closed and then empties the queue is done. Idempotent.
func (k *Sink) Close() {
	b := k.b
	b.mu.Lock()
	if k.idx < len(b.sinks) && b.sinks[k.idx] == k {
		b.sinks[k.idx] = nil
	}
	b.mu.Unlock()
	k.mu.Lock()
	defer k.mu.Unlock()
	if !k.closed {
		k.closed = true
		close(k.ready) // tryPut sends under mu, and not once closed
		k.wakeLocked()
	}
}

// wakeLocked releases the Block publishers waiting for room.
func (k *Sink) wakeLocked() {
	if k.waiting {
		close(k.room)
		k.room, k.waiting = make(chan struct{}), false
	}
}

// resize registers (subs 1) or releases (subs -1, on Cancel) one
// subscription and its share of the capacity. What is queued stays.
func (k *Sink) resize(buffer, subs int) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if subs > 0 && k.closed {
		return errors.New("broker: sink closed")
	}
	k.capacity += buffer
	k.subs += subs
	return nil
}

// Next moves the oldest queued publication into d, reusing d.IDs, and
// reports whether there was one. Elements of that publication queued
// back to back, one per goroutine that matched it, come out together.
func (k *Sink) Next(d *Delivery) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.n == 0 {
		return false
	}
	d.Event, d.IDs = k.ring[k.head].ev, d.IDs[:0]
	for k.n > 0 && k.ring[k.head].ev.Seq == d.Event.Seq && k.ring[k.head].ev.TraceID == d.Event.TraceID {
		for _, s := range k.ring[k.head].subs {
			d.IDs = append(d.IDs, s.id)
		}
		k.popLocked()
	}
	k.wakeLocked()
	return true
}

// popLocked drops the oldest element and releases its event.
func (k *Sink) popLocked() {
	e := &k.ring[k.head]
	k.used -= len(e.subs)
	e.ev = Event{}
	k.head = (k.head + 1) & (len(k.ring) - 1)
	if k.n--; k.n == 0 {
		k.head = 0 // a consumer that keeps up works in one warm slot
	}
}

// tryPut is a sink's put, the one way into the ring: it admits the
// element if it fits, or if the sink is empty (so one larger than the
// whole capacity still gets through), and reports the depth in
// deliveries and the sink's subscription count with the element in. The
// event is cloned, once per publication, only for an admitted element.
//
//pubsub:hotpath
func (k *Sink) tryPut(ev *Event, pr *eventPrep, subs []*Subscription) (depth, group, res int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.closed {
		return 0, 0, putClosed
	}
	if k.used != 0 && k.used+len(subs) > k.capacity {
		return 0, 0, putFull
	}
	if k.n == len(k.ring) {
		k.growLocked()
	}
	pr.materialize(ev)
	e := &k.ring[(k.head+k.n)&(len(k.ring)-1)]
	e.ev, e.subs = *ev, append(e.subs[:0], subs...)
	if k.n == 0 {
		select {
		case k.ready <- struct{}{}:
		default: // the consumer has not taken the last token yet
		}
	}
	k.n++
	k.used += len(subs)
	k.highWater = max(k.highWater, k.used)
	return k.used, k.subs, putOK
}

// growLocked doubles the ring, oldest element first.
//
//pubsub:coldpath -- the ring grows to the sink's working depth once
func (k *Sink) growLocked() {
	ring := make([]sinkElem, max(8, 2*len(k.ring)))
	for i := 0; i < k.n; i++ {
		ring[i] = k.ring[(k.head+i)&(len(k.ring)-1)]
	}
	k.ring, k.head = ring, 0
}

// popOldest removes the oldest element, if there is one, and returns
// its event and subscriptions (copied: the slot may be refilled once mu
// is released).
func (k *Sink) popOldest() (Event, []*Subscription) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.n == 0 {
		return Event{}, nil
	}
	old := k.ring[k.head]
	k.popLocked()
	return old.ev, slices.Clone(old.subs)
}

// putWait puts the element, waiting for the consumer to make room until
// deadline fires or the sink is closed.
func (k *Sink) putWait(ev *Event, pr *eventPrep, subs []*Subscription, deadline <-chan time.Time) (depth, group, res int) {
	for {
		// Ask for the wake-up before trying, so that a pop in between is
		// not missed.
		k.mu.Lock()
		room := k.room
		k.waiting = true
		k.mu.Unlock()
		if depth, group, res = k.tryPut(ev, pr, subs); res != putFull {
			return depth, group, res
		}
		select {
		case <-room:
		case <-deadline:
			return 0, 0, putFull
		}
	}
}

// sinkGroup is the targets one publication matched on one sink.
type sinkGroup struct {
	sink *Sink
	subs []*Subscription
}

// group files a sink subscription under its sink for the flush after the
// goroutine's last part. slot maps a sink's index to its group; an
// entry counts only if that group names the same sink, so nothing is
// cleared between publications and a target costs O(1) however many
// sinks there are.
//
//pubsub:hotpath
func (sc *matchScratch) group(s *Subscription) {
	if s.closed.Load() {
		return // cancelled since the snapshot
	}
	k := s.sink
	if k.idx >= len(sc.slot) {
		sc.growSlots(k.idx)
	}
	g := int(sc.slot[k.idx])
	if g >= len(sc.groups) || sc.groups[g].sink != k {
		g = len(sc.groups)
		if g < cap(sc.groups) {
			sc.groups = sc.groups[:g+1]
		} else {
			sc.groups = append(sc.groups, sinkGroup{})
		}
		sc.groups[g].sink, sc.groups[g].subs = k, sc.groups[g].subs[:0]
		sc.slot[k.idx] = int32(g)
	}
	sc.groups[g].subs = append(sc.groups[g].subs, s)
}

//pubsub:coldpath -- once per goroutine per high-water mark of live sinks
func (sc *matchScratch) growSlots(idx int) {
	sc.slot = append(sc.slot, make([]int32, idx+1-len(sc.slot))...)
}

// flushSinks puts the publication into every sink the goroutine grouped
// targets for, one element each, adding the outcome to r, the result
// slot of the part it ran last. One clock reading (a metered
// publication's; the entry stamp otherwise) times the step and stamps
// every record written in it.
//
//pubsub:hotpath
func (b *Broker) flushSinks(pc *pubCtx, sc *matchScratch, r *partResult) {
	if len(sc.groups) == 0 {
		return
	}
	now := pc.t0
	if pc.metered {
		now = b.rec.Now()
	}
	ev := pc.ev
	for i := range sc.groups {
		n, group := b.admit(&ev, &pc.prep, sc.groups[i].subs, pc.detail, now)
		r.delivered += n
		if n >= 2 && n > r.multicast {
			r.multicast, r.group = n, group
		}
	}
	sc.groups = sc.groups[:0]
	if pc.metered {
		r.enqueueNS += b.rec.Now() - now
	}
}
