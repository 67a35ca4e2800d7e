package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/broker"
	"repro/internal/geometry"
	"repro/internal/match"
	"repro/internal/telemetry"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/workload"
)

// epoch anchors the run's monotonic clock.
var epoch = time.Now()

// now is nanoseconds since epoch on the monotonic clock.
func now() int64 { return int64(time.Since(epoch)) }

// wireWindow is how many publications the wire publisher may have in
// flight — published but not yet fully received by the subscriber
// client. The loop is closed on receipt, not on the publish ack: with
// an ack-only loop the publisher outruns the subscriber's decode, the
// server-side buffers fill and the broker drops, which would make the
// workload measure drops instead of the wire path.
const wireWindow = 1

// walOptions is the durable workload's log configuration. Interval
// fsync, because per-append fsync measures the sandbox disk and not the
// program; small segments and bounded retention so that a run rotates
// and trims segments while it appends, and never fills the disk.
func walOptions(reg *telemetry.Registry) wal.Options {
	return wal.Options{
		Sync:           wal.SyncEvery,
		SegmentBytes:   8 << 20,
		RetentionBytes: 128 << 20,
		Metrics:        reg,
	}
}

// sut is the system under test, set up for one workload: a broker and
// whatever the workload puts around it (a log, a wire server and two
// clients), plus the harness's consumer.
type sut struct {
	sp  spec
	in  *inputs
	dir string // scratch directory for this set-up, removed by close

	br  *broker.Broker
	log *wal.Log

	srv       *wire.Server
	serveDone chan error
	pub, sub  *wire.Client
	wirebuf   []byte
	acks      []uint8  // wire: the Delivered ack of each publication
	cumAcks   []uint64 // wire: running sum of acks

	drain *drainer
	recv  *receiver

	recs      []*subRec // every subscription ever made, in creation order
	oldest    int       // churn: index in recs of the next subscription to cancel
	nextFresh int       // churn: next rectangle to take from in.fresh

	published int    // publications so far; the next one has this global index
	delivered uint64 // sum of Publish return values
	pubErrs   int

	setupSubNS []uint32 // latency of each set-up Subscribe call
	settle     time.Duration
	padding    int // dead entries fold left in the index
	closed     bool
}

// settled reports whether every shard's rebuilder is idle with nothing
// due. The thresholds mirror the broker's defaults (MinOverlay 64,
// overlay > base/4, stale > base/2).
func settled(br *broker.Broker) bool {
	for _, st := range br.ShardStats() {
		if st.Rebuilding ||
			(st.OverlayLen > 64 && st.OverlayLen*4 > st.BaseLen) ||
			(st.Stale > 0 && st.Stale*2 > st.BaseLen) {
			return false
		}
	}
	return true
}

func waitSettled(br *broker.Broker, cal *pacer) error {
	deadline := time.Now().Add(2 * time.Minute)
	for !settled(br) {
		if time.Now().After(deadline) {
			return errors.New("index rebuild never settled")
		}
		cal.tick()
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// yieldToRebuilder hands the processor over after a Subscribe. On one P
// a subscribe burst that never yields lets the background rebuilder run
// only when the runtime preempts the burst, at moments of its choosing:
// the number and size of the rebuilds, and with them set-up time and the
// shape of the index, then differ from one set-up to the next. Yielding
// after every call lets each rebuild run the moment it is triggered.
func yieldToRebuilder() { runtime.Gosched() }

// padRect is the rectangle of fold's temporary subscriptions: a
// nanometre box in the top corner of the event space. No publication
// falls in it, and it lies inside the space, so it does not stretch the
// index's bounding box. (A box far outside the space does, and the
// S-tree then packs the real rectangles differently: measured on the
// selective workload, 79 nodes visited per query instead of 111. Worth a
// look by whoever works on the index; not something a harness may do to
// the system it measures.)
func padRect() geometry.Rect {
	dom := workload.StockSpace().Domain
	r := make(geometry.Rect, len(dom))
	for i, iv := range dom {
		r[i] = geometry.NewInterval(iv.Hi-1e-9, iv.Hi)
	}
	return r
}

// fold brings a broker whose index has been rebuilt at least once to
// its one canonical settled state: every subscription in a packed
// index, every overlay empty.
//
// Left alone, a settled shard keeps whatever arrived since its last
// rebuild in a linearly scanned overlay of up to a quarter of its base.
// On the selective workload that is fifteen thousand rectangles scanned
// on every publish, several times the cost of the tree walk the
// workload exists to measure. fold pads each such shard past its
// rebuild threshold with temporary subscriptions (padRect), waits for
// the rebuild that folds the real overlay in, and cancels the padding:
// what is left of it is dead entries in a corner of the index no
// publication visits. It returns how many of them there are.
func fold(br *broker.Broker, cal *pacer) (padding int, err error) {
	pad := padRect()
	for {
		if err := waitSettled(br, cal); err != nil {
			return padding, err
		}
		before := br.ShardStats()
		pending, rebuilt := false, false
		for _, st := range before {
			pending = pending || st.OverlayLen > 0
			rebuilt = rebuilt || st.BaseLen > 0
		}
		if !pending || !rebuilt {
			return padding, nil
		}
		var pads []*broker.Subscription
		for folded := false; !folded; {
			sub, err := br.Subscribe(pad)
			if err != nil {
				return padding, err
			}
			pads = append(pads, sub)
			yieldToRebuilder()
			cal.tick()
			folded = true
			for i, st := range br.ShardStats() {
				if before[i].OverlayLen > 0 && st.Rebuilds == before[i].Rebuilds {
					folded = false
				}
			}
		}
		if err := waitSettled(br, cal); err != nil {
			return padding, err
		}
		for _, sub := range pads {
			sub.Cancel()
		}
		padding += len(pads)
	}
}

// setUp builds the workload's system from nothing: empty broker -> all
// subscribed, index settled, log open, clients connected. What it
// returns is ready to publish into. reg, when non-nil, is handed to the
// log (durable only) so that the traced run can count fsyncs; cal, when
// non-nil, calibrates the set-up's loops as they run.
func setUp(sp spec, in *inputs, outDir string, reg *telemetry.Registry, cal *pacer) (s *sut, err error) {
	s = &sut{sp: sp, in: in}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if s.dir, err = os.MkdirTemp(outDir, "run-"+sp.name+"-"); err != nil {
		return s, err
	}

	opts := broker.Options{DefaultBuffer: sp.buffer}
	if sp.durable {
		if s.log, err = wal.Open(filepath.Join(s.dir, "wal"), walOptions(reg)); err != nil {
			return s, err
		}
		opts.Log = s.log
	}
	s.br = broker.New(opts)

	if sp.wire {
		return s, s.setUpWire()
	}

	s.drain = newDrainer(true)
	s.recs = make([]*subRec, 0, len(in.rects))
	s.setupSubNS = make([]uint32, 0, len(in.rects))
	for _, r := range in.rects {
		t0 := now()
		sub, err := s.br.Subscribe(r)
		s.setupSubNS = append(s.setupSubNS, uint32(now()-t0))
		if err != nil {
			return s, err
		}
		rec := &subRec{sub: sub, rect: r, died: -1}
		s.recs = append(s.recs, rec)
		s.drain.add(rec)
		yieldToRebuilder()
		cal.tick()
	}
	t0 := time.Now()
	s.padding, err = fold(s.br, cal)
	s.settle = time.Since(t0)
	return s, err
}

func (s *sut) setUpWire() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = wire.NewServer(s.br)
	s.serveDone = make(chan error, 1)
	go func() { s.serveDone <- s.srv.Serve(ln) }()

	addr := ln.Addr().String()
	if s.sub, err = wire.Dial(addr); err != nil {
		return err
	}
	s.recv = newReceiver(s.sub, s.in, s.sp.payload)
	if s.pub, err = wire.Dial(addr); err != nil {
		return err
	}
	for _, r := range s.in.rects {
		t0 := now()
		_, err := s.sub.Subscribe(r)
		s.setupSubNS = append(s.setupSubNS, uint32(now()-t0))
		if err != nil {
			return err
		}
	}
	s.wirebuf = make([]byte, s.sp.payload)
	return s.pub.Ping()
}

// publish sends the publication with the next global index and returns
// when the publish call itself started and how long it took.
func (s *sut) publish() (start, took int64, err error) {
	i := s.published
	p, payload := s.in.ring[i%ringSize], s.in.payloads[i%ringSize]
	var n int
	if s.sp.wire {
		if err := s.awaitWindow(i); err != nil {
			return 0, 0, err
		}
		copy(s.wirebuf, payload)
		start = now()
		putHeader(s.wirebuf, i, start)
		n, err = s.pub.Publish(p, s.wirebuf)
		took = now() - start
		s.acks = append(s.acks, uint8(n))
		s.cumAcks = append(s.cumAcks, s.delivered+uint64(n))
	} else {
		start = now()
		n, err = s.br.Publish(p, payload)
		took = now() - start
	}
	s.published++
	s.delivered += uint64(n)
	if err != nil {
		s.pubErrs++
	}
	return start, took, err
}

// awaitWindow blocks until the subscriber client has every frame of
// publication i-wireWindow.
func (s *sut) awaitWindow(i int) error {
	if i < wireWindow {
		return nil
	}
	need := s.cumAcks[i-wireWindow]
	deadline := time.NewTimer(10 * time.Second)
	defer deadline.Stop()
	for s.recv.frames.Load() < need {
		select {
		case <-s.recv.progress:
		case <-s.recv.done:
			return errors.New("wire: subscriber connection closed mid-run")
		case <-deadline.C:
			return fmt.Errorf("wire: publication %d not fully received after 10s (%d of %d frames)",
				i-wireWindow, s.recv.frames.Load(), need)
		}
	}
	return nil
}

// churnStep subscribes one fresh rectangle and cancels the oldest
// subscription, returning how long each call took.
func (s *sut) churnStep() (subNS, cancelNS int64, err error) {
	rect := s.in.fresh[s.nextFresh%len(s.in.fresh)]
	s.nextFresh++
	t0 := now()
	sub, err := s.br.Subscribe(rect)
	subNS = now() - t0
	if err != nil {
		return 0, 0, err
	}
	rec := &subRec{sub: sub, rect: rect, born: s.published, died: -1}
	s.recs = append(s.recs, rec)
	s.drain.add(rec)

	old := s.recs[s.oldest]
	s.oldest++
	t1 := now()
	old.sub.Cancel()
	cancelNS = now() - t1
	old.died = s.published
	s.drain.retire(old)
	return subNS, cancelNS, nil
}

// quiesce waits until the consumer has everything that was published,
// then stops it. After quiesce the consumer's records may be read.
func (s *sut) quiesce() error {
	if s.drain != nil {
		s.drain.halt()
		return nil
	}
	if s.recv == nil {
		return nil
	}
	if err := s.awaitWindow(s.published + wireWindow - 1); err != nil {
		return err
	}
	_ = s.sub.Close()
	<-s.recv.done
	return nil
}

// close tears the system down and removes its scratch directory. It is
// safe on a partially set-up sut, after quiesce, and twice.
func (s *sut) close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.pub != nil {
		_ = s.pub.Close()
	}
	if s.sub != nil {
		_ = s.sub.Close()
		<-s.recv.done
	}
	if s.srv != nil {
		s.srv.Close()
		<-s.serveDone
	}
	if s.br != nil {
		s.br.Close()
	}
	if s.drain != nil {
		select {
		case <-s.drain.done:
		default:
			s.drain.halt()
		}
	}
	if s.log != nil {
		_ = s.log.Close()
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir)
	}
}

// shadowMatcher builds the standalone index the traced run queries
// beside the broker: the broker's default match.Options over the
// workload's rectangles plus the padding fold left in the broker's own
// index, so that both walk the same tree. SubscriberIDs are positions
// in rects; the padding never matches.
func shadowMatcher(rects []geometry.Rect, padding int) (match.StatsMatcher, time.Duration, error) {
	subs := make([]match.Subscription, len(rects), len(rects)+padding)
	for i, r := range rects {
		subs[i] = match.Subscription{Rect: r, SubscriberID: i}
	}
	for i := 0; i < padding; i++ {
		subs = append(subs, match.Subscription{Rect: padRect(), SubscriberID: len(rects) + i})
	}
	t0 := time.Now()
	m, err := match.New(subs, broker.Options{}.Matcher)
	took := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	sm, ok := m.(match.StatsMatcher)
	if !ok {
		return nil, 0, fmt.Errorf("default matcher %T reports no traversal statistics", m)
	}
	return sm, took, nil
}
