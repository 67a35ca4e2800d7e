package main

import (
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/geometry"
	"repro/internal/wire"
)

// subRec is the harness's record of one in-process subscription. The
// publisher goroutine owns born and died; the drainer owns the rest
// until it has stopped.
type subRec struct {
	sub  *broker.Subscription
	rect geometry.Rect
	// born and died bound the publications the subscription was
	// registered for: global publication indices [born, died). died is
	// -1 while it lives.
	born, died int

	got     uint64 // events received
	lastSeq uint64
	bad     uint64 // events outside rect, or with a Seq not above the last
	slot    int    // index in drainer.live, -1 once retired
	hot     bool   // on the drainer's hot list
}

// drainer is the single consumer of every in-process subscription. It
// sweeps all channels with non-blocking receives on a fixed cadence
// instead of parking one goroutine per subscriber, so the numbers
// measure the broker and not the scheduler.
type drainer struct {
	check bool // verify each event against its subscription

	mu        sync.Mutex
	added     []*subRec
	cancelled []*subRec

	live  []*subRec
	chans []<-chan broker.Event // chans[i] is live[i]'s channel, kept apart so the idle sweep walks a dense slice
	// hot is the subscriptions that ever yielded a quarter of their
	// buffer in one visit. They are the ones a full sweep's period could
	// overflow, so they are drained every sweepCadence, between and
	// during sweeps.
	hot []*subRec

	received atomic.Uint64
	paused   atomic.Bool
	sweepMax time.Duration

	stop chan struct{}
	done chan struct{}
}

// sweepCadence is the drainer's tick; pollCost stretches the period of
// full sweeps for large populations so that polling idle channels (one
// cache miss each) never takes more than about a tenth of a core from
// the broker. 10 000 subscriptions are swept every 2 ms, 100 000 every
// 20 ms; the hot list is drained on every tick in between. The period
// depends on the population only, never on how the last sweep went, so
// a sweep that was descheduled does not delay the next.
const (
	sweepCadence = time.Millisecond
	pollCost     = 200 * time.Nanosecond
	sweepChunk   = 8192 // channels polled between two visits to the hot list
)

func newDrainer(check bool) *drainer {
	d := &drainer{check: check, stop: make(chan struct{}), done: make(chan struct{})}
	go d.run()
	return d
}

func (d *drainer) add(r *subRec) {
	d.mu.Lock()
	d.added = append(d.added, r)
	d.mu.Unlock()
}

// retire tells the drainer that r was cancelled: its channel is closed
// and whatever it still buffers is the last it will ever hold.
func (d *drainer) retire(r *subRec) {
	d.mu.Lock()
	d.cancelled = append(d.cancelled, r)
	d.mu.Unlock()
}

func (d *drainer) run() {
	defer close(d.done)
	var nextSweep time.Time
	for {
		select {
		case <-d.stop:
			d.sweep() // Publish is synchronous, so one last sweep sees everything
			return
		default:
		}
		if t0 := time.Now(); d.paused.Load() {
			// nothing is being published into these subscriptions
		} else if t0.Before(nextSweep) {
			d.received.Add(d.drainHot())
		} else {
			d.sweep()
			d.sweepMax = max(d.sweepMax, time.Since(t0))
			nextSweep = t0.Add(max(sweepCadence, time.Duration(len(d.live))*pollCost))
		}
		time.Sleep(sweepCadence)
	}
}

func (d *drainer) drainHot() uint64 {
	var n uint64
	for _, r := range d.hot {
		n += d.drain(r, r.sub.Events())
	}
	return n
}

// halt stops the drainer after a final sweep and waits for it.
func (d *drainer) halt() {
	close(d.stop)
	<-d.done
}

func (d *drainer) sweep() {
	d.mu.Lock()
	added, cancelled := d.added, d.cancelled
	d.added, d.cancelled = nil, nil
	d.mu.Unlock()

	for _, r := range added {
		r.slot = len(d.live)
		d.live = append(d.live, r)
		d.chans = append(d.chans, r.sub.Events())
	}
	var n uint64
	for lo := 0; lo < len(d.chans); lo += sweepChunk {
		hi := min(lo+sweepChunk, len(d.chans))
		for i, ch := range d.chans[lo:hi] {
			if len(ch) == 0 {
				continue
			}
			r := d.live[lo+i]
			k := d.drain(r, ch)
			n += k
			if !r.hot && int(k) >= cap(ch)/4 {
				r.hot = true
				d.hot = append(d.hot, r)
			}
		}
		n += d.drainHot()
	}
	for _, r := range cancelled {
		n += d.drain(r, r.sub.Events())
		last := len(d.live) - 1
		d.live[r.slot], d.chans[r.slot] = d.live[last], d.chans[last]
		d.live[r.slot].slot = r.slot
		d.live, d.chans = d.live[:last], d.chans[:last]
		r.slot = -1
	}
	d.received.Add(n)
}

// drain empties one channel without blocking and returns how many
// events it took.
func (d *drainer) drain(r *subRec, ch <-chan broker.Event) uint64 {
	var n uint64
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return n
			}
			n++
			r.got++
			if d.check {
				if ev.Seq <= r.lastSeq || !r.rect.Contains(ev.Point) {
					r.bad++
				}
				r.lastSeq = ev.Seq
			}
		default:
			return n
		}
	}
}

// recvSample is one event frame's end-to-end latency on the wire
// workload, tagged with the publication it belongs to.
type recvSample struct {
	pub uint32
	ns  uint32
}

// receiver is the wire workload's subscriber side: one goroutine
// reading the subscriber client's event channel.
type receiver struct {
	cli     *wire.Client
	in      *inputs
	payload int

	frames   atomic.Uint64
	progress chan struct{} // poked on every frame; the publisher's flow control waits on it
	tracing  atomic.Bool

	perPub  []uint8 // frames seen per publication index
	bad     uint64  // frames whose point, payload or Seq is not what was published
	samples []recvSample
	spans   []span // recv spans, recorded only while tracing
	done    chan struct{}
}

func newReceiver(cli *wire.Client, in *inputs, payload int) *receiver {
	r := &receiver{cli: cli, in: in, payload: payload,
		progress: make(chan struct{}, 1), done: make(chan struct{})}
	go r.run()
	return r
}

func (r *receiver) run() {
	defer close(r.done)
	for ev := range r.cli.Events() {
		t := now()
		if len(ev.Payload) != r.payload {
			r.bad++
			continue
		}
		pub := int(binary.LittleEndian.Uint64(ev.Payload))
		sent := int64(binary.LittleEndian.Uint64(ev.Payload[8:]))
		for pub >= len(r.perPub) {
			r.perPub = append(r.perPub, make([]uint8, 4096)...)
		}
		r.perPub[pub]++
		if ev.Seq != uint64(pub)+1 || !slices.Equal(ev.Point, r.in.ring[pub%ringSize]) {
			r.bad++
		}
		r.samples = append(r.samples, recvSample{pub: uint32(pub), ns: uint32(t - sent)})
		if r.tracing.Load() && len(r.spans) < maxSpans/2 {
			r.spans = append(r.spans, span{Name: spanRecv, Pub: pub, Parent: -1, Start: sent, End: t})
		}
		r.frames.Add(1)
		select {
		case r.progress <- struct{}{}:
		default:
		}
	}
}
