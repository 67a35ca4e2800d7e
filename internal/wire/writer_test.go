package wire

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/faultnet"
	"repro/internal/geometry"
)

// serverConns snapshots the server's live connections.
func serverConns(s *Server) []*connState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*connState, 0, len(s.conns))
	for cs := range s.conns {
		out = append(out, cs)
	}
	return out
}

// queued reports the frame bytes the connection has accepted and not yet
// written, and the storage its queue holds.
func (cs *connState) queued() (bytes, storage int) {
	cs.out.mu.Lock()
	defer cs.out.mu.Unlock()
	return len(cs.out.pending) + cs.out.inflight, cap(cs.out.pending)
}

// The OK that ends a replay must come after every replayed frame on the
// stream, although frames are now queued and written in batches: a
// client that has read its reply has read the whole replay.
func TestReplyFollowsEveryReplayFrame(t *testing.T) {
	b, addr := startDurableBroker(t)
	// After the broker, whose part workers live until the test's
	// cleanup: the count is about connections.
	base := runtime.NumGoroutine()
	const history = 500
	for i := 1; i <= history; i++ {
		if _, err := b.Publish(geometry.Point{float64(i%10 + 1)}, []byte(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	for _, req := range []*Message{
		{Type: TypeSubscribe, FromOffset: 1}, // pure replay
		{Type: TypeSubscribe, FromOffset: 1, Rects: []Rect{RectToWire(geometry.NewRect(0, 100))}},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
		if err := WriteMessage(conn, req); err != nil {
			t.Fatal(err)
		}
		events, last := 0, uint64(0)
		for {
			m, err := ReadMessage(conn)
			if err != nil {
				t.Fatalf("after %d events: %v", events, err)
			}
			if m.Type == TypeOK {
				if len(req.Rects) == 0 && m.Delivered != history {
					t.Errorf("replay reply counts %d frames, want %d", m.Delivered, history)
				}
				break
			}
			if m.Type != TypeEvent || m.Seq != last+1 {
				t.Fatalf("frame %d of the replay: %+v (previous Seq %d)", events, m, last)
			}
			events, last = events+1, m.Seq
		}
		if events != history {
			t.Errorf("reply arrived after %d of %d replay frames", events, history)
		}
		// Nothing trails the reply.
		_ = conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		if m, err := ReadMessage(conn); err == nil {
			t.Errorf("frame after the reply: %+v", m)
		}
		conn.Close()
	}
	checkGoroutines(t, base)
}

// A peer that stops reading must cost the server a bounded queue, be
// evicted by the write deadline, and leave no pump behind.
func TestStalledPeerBoundsQueueAndIsEvicted(t *testing.T) {
	base := runtime.NumGoroutine()
	const writeTimeout = 300 * time.Millisecond
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fn := faultnet.New(faultnet.Options{})
	b := broker.New(broker.Options{})
	s := NewServerWith(b, ServerOptions{WriteTimeout: writeTimeout})
	go func() { _ = s.Serve(fn.Listen(inner)) }()

	peer, err := net.Dial("tcp", inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	const subs = 8
	for i := 0; i < subs; i++ {
		if err := WriteMessage(peer, &Message{Type: TypeSubscribe, Rects: []Rect{RectToWire(geometry.NewRect(0, 10))}}); err != nil {
			t.Fatal(err)
		}
		if m, err := ReadMessage(peer); err != nil || m.Type != TypeOK {
			t.Fatalf("subscribe reply: %+v err=%v", m, err)
		}
	}
	conns := serverConns(s)
	if len(conns) != 1 {
		t.Fatalf("server has %d connections, want 1", len(conns))
	}
	cs := conns[0]

	// From here every server-side write blocks, as against a peer whose
	// receive window is shut.
	fn.Partition()
	stalled := time.Now()
	payload := make([]byte, 200)
	maxQueued, maxStorage := 0, 0
	for b.Stats().Subscriptions != 0 {
		if time.Since(stalled) > 10*time.Second {
			t.Fatal("stalled peer never evicted")
		}
		for i := 0; i < 100; i++ {
			if _, err := b.Publish(geometry.Point{5}, payload); err != nil {
				t.Fatal(err)
			}
		}
		q, st := cs.queued()
		maxQueued, maxStorage = max(maxQueued, q), max(maxStorage, st)
		runtime.Gosched()
	}
	evictedAfter := time.Since(stalled)

	if maxQueued == 0 {
		t.Error("nothing was ever queued: the test did not exercise the writer")
	}
	if maxQueued > pendingCap {
		t.Errorf("queue reached %d bytes, cap is %d", maxQueued, pendingCap)
	}
	if maxStorage > 2*pendingCap {
		t.Errorf("queue storage reached %d bytes for a %d-byte cap", maxStorage, pendingCap)
	}
	// The deadline starts with the first blocked batch; allow scheduling
	// slack on top, but not a second timeout's worth of waiting.
	if evictedAfter < writeTimeout/2 || evictedAfter > writeTimeout+2*time.Second {
		t.Errorf("evicted after %v, write timeout is %v", evictedAfter, writeTimeout)
	}
	// The backlog went where it belongs: into the subscriptions' buffers
	// and from there to the overflow policy.
	if b.Stats().Dropped == 0 {
		t.Error("no drops: a stalled peer's backlog never reached the overflow policy")
	}

	fn.Heal()
	s.Close()
	b.Close()
	checkGoroutines(t, base) // the blocked pumps and the writer are gone
}

// Shutdown must deliver every frame that was queued before it, from
// every pump of the connection, before it closes.
func TestShutdownDeliversEverythingQueued(t *testing.T) {
	base := runtime.NumGoroutine()
	b := broker.New(broker.Options{DefaultBuffer: 512})
	s := NewServerWith(b, ServerOptions{WriteTimeout: 5 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve(ln) }()

	cli, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// 800 frames in all: fewer than the client's event buffer holds, so
	// a loss can only be the server's.
	const subs, events = 4, 200
	for i := 0; i < subs; i++ {
		if err := subscribeBuffered(cli, 512); err != nil {
			t.Fatal(err)
		}
	}
	got := make(chan map[uint64]int, 1)
	go func() {
		seen := make(map[uint64]int)
		for ev := range cli.Events() {
			seen[ev.Seq]++
		}
		got <- seen
	}()

	for i := 0; i < events; i++ {
		if n, err := b.Publish(geometry.Point{5}, []byte{byte(i)}); err != nil || n != subs {
			t.Fatalf("publish %d: n=%d err=%v", i, n, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	seen := <-got
	if d := cli.Dropped(); d != 0 {
		t.Fatalf("client dropped %d events", d)
	}
	for seq := uint64(1); seq <= events; seq++ {
		if seen[seq] != subs {
			t.Fatalf("Seq %d delivered %d times across the drain, want %d", seq, seen[seq], subs)
		}
	}
	b.Close()
	checkGoroutines(t, base)
}

// subscribeBuffered subscribes cli to (0, 10] with an explicit
// server-side buffer, which Client.Subscribe does not expose.
func subscribeBuffered(cli *Client, buffer int) error {
	_, err := cli.roundTrip(&Message{Type: TypeSubscribe, Buffer: buffer,
		Rects: []Rect{RectToWire(geometry.NewRect(0, 10))}}, nil)
	return err
}

// gatedConn holds every Write until the gate is opened, and records how
// many bytes have reached the socket.
type gatedConn struct {
	net.Conn
	mu      sync.Mutex
	open    chan struct{}
	written int
}

func (c *gatedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	open := c.open
	c.mu.Unlock()
	<-open
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.written += n
	c.mu.Unlock()
	return n, err
}

// shut makes subsequent writes block; the returned func releases them.
func (c *gatedConn) shut() (release func()) {
	ch := make(chan struct{})
	c.mu.Lock()
	c.open = ch
	c.mu.Unlock()
	return func() { close(ch) }
}

func (c *gatedConn) bytesWritten() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.written
}

type gatedListener struct {
	net.Listener
	conns chan *gatedConn
}

func (l *gatedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	open := make(chan struct{})
	close(open)
	gc := &gatedConn{Conn: c, open: open}
	l.conns <- gc
	return gc, nil
}

// A wake-up that finds the queue empty must leave the writer's spare
// buffer out of the queue: otherwise the next batch and the queue share
// storage, and a frame queued while that batch is being written
// overwrites it.
func TestEmptyWakeKeepsWriterBuffersApart(t *testing.T) {
	cs, gc, peer := pipeConn(t, false)
	_ = peer.SetReadDeadline(time.Now().Add(10 * time.Second))
	ok := func(n int) {
		t.Helper()
		if err := cs.write(&Message{Type: TypeOK, Delivered: n}); err != nil {
			t.Fatal(err)
		}
	}
	read := func(want int) {
		t.Helper()
		if m, err := ReadMessage(peer); err != nil || m.Type != TypeOK || m.Delivered != want {
			t.Fatalf("read %+v, %v; want the ok delivering %d", m, err, want)
		}
	}
	ok(1) // the batch's storage becomes the writer's spare
	read(1)
	// Wake-ups with nothing queued; the third send waits until the
	// writer has taken the second, so the first has been handled.
	for i := 0; i < 3; i++ {
		cs.out.kick <- struct{}{}
	}
	release := gc.shut()
	ok(2)
	waitFor(t, "the writer to take the frame", 2*time.Second, func() bool {
		cs.out.mu.Lock()
		defer cs.out.mu.Unlock()
		return cs.out.inflight > 0
	})
	ok(3) // queued while the batch holding 2 is being written
	release()
	read(2)
	read(3)
}

// A frame that write accepted reaches the peer, also when the writer is
// being stopped: once the writer has taken its last batch, write refuses
// instead of queueing behind it. The gate holds the writer inside a
// Write, last batch or not, while a second frame is offered.
func TestWriteAcceptedWhileStoppingIsWritten(t *testing.T) {
	for i := 0; i < 100; i++ {
		server, peer := net.Pipe()
		open := make(chan struct{})
		close(open)
		gc := &gatedConn{Conn: server, open: open}
		cs := newConnState(gc, ServerOptions{})
		go cs.out.writeLoop(0)
		received := make(chan int)
		go func() {
			n := 0
			for {
				if _, err := ReadMessage(peer); err != nil {
					received <- n
					return
				}
				n++
			}
		}()

		release := gc.shut()
		accepted := 0
		if err := cs.write(&Message{Type: TypePing}); err != nil {
			t.Fatal(err)
		}
		accepted++
		stopped := make(chan struct{})
		go func() {
			cs.out.stopWriter()
			close(stopped)
		}()
		if i%2 == 1 {
			// Let the writer reach the gate: with its last batch if it saw
			// the stop first, with an ordinary one otherwise.
			waitFor(t, "the writer to take the first frame", 2*time.Second, func() bool {
				cs.out.mu.Lock()
				defer cs.out.mu.Unlock()
				return cs.out.inflight > 0
			})
		}
		if cs.write(&Message{Type: TypePing}) == nil {
			accepted++
		}
		release()
		<-stopped
		if err := cs.write(&Message{Type: TypePing}); err == nil {
			t.Fatal("write accepted a frame after the writer had exited")
		}
		_ = server.Close()
		if got := <-received; got != accepted {
			t.Fatalf("round %d: write accepted %d frames, the peer received %d", i, accepted, got)
		}
		_ = peer.Close()
	}
}

// ConnLags().LastSeq is what a resuming client may skip: it must never
// name a Seq whose frame is still in the server's queue.
func TestConnLagNeverAheadOfBytesWritten(t *testing.T) {
	base := runtime.NumGoroutine()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gl := &gatedListener{Listener: inner, conns: make(chan *gatedConn, 1)}
	b := broker.New(broker.Options{})
	s := NewServer(b)
	go func() { _ = s.Serve(gl) }()

	cli, err := Dial(inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	gc := <-gl.conns
	if _, err := cli.Subscribe(geometry.NewRect(0, 10)); err != nil {
		t.Fatal(err)
	}
	cs := serverConns(s)[0]

	release := gc.shut()
	wrote := gc.bytesWritten()
	const events = 20
	for i := 0; i < events; i++ {
		if _, err := b.Publish(geometry.Point{5}, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// The pump queues the frames; the writer takes them and blocks.
	waitFor(t, "frames queued behind the gate", 2*time.Second, func() bool {
		q, _ := cs.queued()
		return q > 0
	})
	for i := 0; i < 20; i++ {
		if lags := s.ConnLags(); len(lags) != 1 || lags[0].LastSeq != 0 || lags[0].LagEvents != events {
			t.Fatalf("no byte has been written (%d since the gate shut), yet lag reads %+v", gc.bytesWritten()-wrote, lags)
		}
		time.Sleep(time.Millisecond)
	}
	release()
	waitFor(t, "LastSeq to follow the flushed frames", 2*time.Second, func() bool {
		lags := s.ConnLags()
		return len(lags) == 1 && lags[0].LastSeq == events && lags[0].LagEvents == 0
	})
	if gc.bytesWritten() == wrote {
		t.Error("LastSeq advanced without a byte written")
	}
	for i := 0; i < events; i++ {
		select {
		case <-cli.Events():
		case <-time.After(2 * time.Second):
			t.Fatalf("event %d never arrived", i+1)
		}
	}

	_ = cli.Close()
	s.Close()
	b.Close()
	checkGoroutines(t, base)
}

// A publish accepted at the frame limit used to be acked and then evict
// every matching subscriber: the event frame adds seq and sub_id, did
// not fit MaxFrame, and the failed encode was treated as a dead socket.
func TestAtLimitPublishDoesNotEvictSubscribers(t *testing.T) {
	_, b, addr := startHardenedServer(t, ServerOptions{})
	sub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if _, err := sub.Subscribe(geometry.NewRect(0, 10)); err != nil {
		t.Fatal(err)
	}
	pub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	// The largest payload whose publish frame still fits: the event
	// frame would not. It must be refused to the publisher.
	atLimit := make([]byte, 786_375)
	if _, err := pub.Publish(geometry.Point{5}, atLimit); err == nil || !strings.Contains(err.Error(), "too large") {
		t.Fatalf("at-limit publish: err = %v, want a too-large protocol error", err)
	}
	if got := b.Stats().Published; got != 0 {
		t.Errorf("refused publish reached the broker (%d published)", got)
	}
	// A payload with room to spare for the event fields goes through.
	fits := make([]byte, 786_000)
	if n, err := pub.Publish(geometry.Point{5}, fits); err != nil || n != 1 {
		t.Fatalf("large publish: n=%d err=%v", n, err)
	}
	select {
	case ev := <-sub.Events():
		if len(ev.Payload) != len(fits) {
			t.Fatalf("large event arrived with %d payload bytes", len(ev.Payload))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("large event never arrived")
	}

	// An event no frame can carry (published in-process, past the wire's
	// ingest check) is skipped; the subscriber stays connected and gets
	// what follows.
	if _, err := b.Publish(geometry.Point{5}, make([]byte, MaxFrame)); err != nil {
		t.Fatal(err)
	}
	if n, err := pub.Publish(geometry.Point{5}, []byte("after")); err != nil || n != 1 {
		t.Fatalf("publish after the unframeable event: n=%d err=%v", n, err)
	}
	select {
	case ev, open := <-sub.Events():
		if !open || string(ev.Payload) != "after" {
			t.Fatalf("subscriber got %q (open=%v), want the event after the skipped one", ev.Payload, open)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscriber received nothing after the unframeable event")
	}
	if got := b.Stats().Subscriptions; got != 1 {
		t.Errorf("subscriptions = %d: the subscriber was evicted", got)
	}
	if err := sub.Ping(); err != nil {
		t.Errorf("subscriber connection broken: %v", err)
	}
}
