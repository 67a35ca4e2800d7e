package wire

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/geometry"
	"repro/internal/wal"
)

// startDurableServer runs a broker backed by a fresh WAL plus a server
// on a loopback listener.
func startDurableServer(t *testing.T) (*Server, string) {
	t.Helper()
	log, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	b := broker.New(broker.Options{Log: log})
	s := NewServer(b)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve(ln) }()
	t.Cleanup(func() {
		s.Close()
		b.Close()
		log.Close()
	})
	return s, ln.Addr().String()
}

func publishN(t *testing.T, cli *Client, from, to int) {
	t.Helper()
	for i := from; i <= to; i++ {
		if _, err := cli.Publish(geometry.Point{float64(i%10 + 1)}, []byte(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
}

// TestClientReplay: a replay-only subscribe returns the full durable
// history in offset order, and the OK's Delivered matches.
func TestClientReplay(t *testing.T) {
	_, addr := startDurableServer(t)
	pub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	publishN(t, pub, 1, 20)

	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	evs, err := cli.Replay(0)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(evs) != 20 {
		t.Fatalf("replayed %d events, want 20", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has Seq %d", i, ev.Seq)
		}
		if want := fmt.Sprintf("e%d", i+1); string(ev.Payload) != want {
			t.Fatalf("event %d payload %q, want %q", i, ev.Payload, want)
		}
	}
	// A mid-log start.
	evs, err = cli.Replay(15)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 6 || evs[0].Seq != 15 {
		t.Fatalf("Replay(15): %d events starting at %d", len(evs), evs[0].Seq)
	}
}

// TestReplayOnNonDurableServer: from_offset against a log-less server is
// a protocol error, not a hang or a silent live subscribe.
func TestReplayOnNonDurableServer(t *testing.T) {
	_, addr := startServer(t)
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Replay(0); err == nil {
		t.Fatal("Replay succeeded against a server with no log")
	}
	if _, err := cli.SubscribeFrom(1, geometry.NewRect(0, 10)); err == nil {
		t.Fatal("SubscribeFrom succeeded against a server with no log")
	}
	// A plain subscribe still works on the same connection.
	if _, err := cli.Subscribe(geometry.NewRect(0, 10)); err != nil {
		t.Fatalf("plain Subscribe after failed replay: %v", err)
	}
}

// TestSubscribeFromBridgesReplayToLive: history arrives first, then live
// events, seamlessly ordered with no duplicate or gap at the boundary.
func TestSubscribeFromBridgesReplayToLive(t *testing.T) {
	_, addr := startDurableServer(t)
	pub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	publishN(t, pub, 1, 10)

	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.SubscribeFrom(1, geometry.NewRect(0, 100)); err != nil {
		t.Fatal(err)
	}
	publishN(t, pub, 11, 20)

	seen := make(map[uint64]bool)
	last := uint64(0)
	timeout := time.After(5 * time.Second)
	for len(seen) < 20 {
		select {
		case ev := <-cli.Events():
			if seen[ev.Seq] {
				t.Fatalf("Seq %d delivered twice", ev.Seq)
			}
			if ev.Seq <= last {
				t.Fatalf("Seq %d after %d: out of order", ev.Seq, last)
			}
			seen[ev.Seq] = true
			last = ev.Seq
		case <-timeout:
			t.Fatalf("saw %d of 20 events", len(seen))
		}
	}
}

// TestSubscribeFromFiltersReplayByRect: replayed history is filtered by
// the subscription's rectangles just like live fanout.
func TestSubscribeFromFiltersReplayByRect(t *testing.T) {
	_, addr := startDurableServer(t)
	pub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	// Points 1..10: only 4..6 fall in (3, 6].
	publishN(t, pub, 1, 10)

	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.SubscribeFrom(1, geometry.NewRect(3, 6)); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	timeout := time.After(5 * time.Second)
	for len(got) < 3 {
		select {
		case ev := <-cli.Events():
			if p := ev.Point[0]; p <= 3 || p > 6 {
				t.Fatalf("replayed point %v outside the subscription rect", ev.Point)
			}
			got = append(got, ev.Seq)
		case <-timeout:
			t.Fatalf("saw %d of 3 filtered events: %v", len(got), got)
		}
	}
}

// TestReconnectingClientResume is the kill-and-restart satellite: a
// resuming subscriber must see every durable event exactly once, in
// order, across a full server restart — without relying on Dropped().
func TestReconnectingClientResume(t *testing.T) {
	dir := t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	boot := func(ln net.Listener) (*Server, *broker.Broker, *wal.Log) {
		log, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		b := broker.New(broker.Options{Log: log})
		s := NewServer(b)
		go func() { _ = s.Serve(ln) }()
		return s, b, log
	}
	s1, b1, log1 := boot(ln)

	rc, err := DialReconnecting(addr, ReconnectOptions{
		InitialBackoff: 10 * time.Millisecond,
		MaxBackoff:     100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := rc.SubscribeFrom(1, geometry.NewRect(0, 1000)); err != nil {
		t.Fatal(err)
	}

	pub := func(b *broker.Broker, from, to int) {
		t.Helper()
		for i := from; i <= to; i++ {
			if _, err := b.Publish(geometry.Point{float64(i%10 + 1)}, []byte(fmt.Sprintf("e%d", i))); err != nil {
				t.Fatalf("publish %d: %v", i, err)
			}
		}
	}
	pub(b1, 1, 30)

	// Kill the server mid-stream (hard close: buffered events may die
	// with the connections — the log is the source of truth).
	s1.Close()
	b1.Close()
	log1.Close()

	// Restart on the same address over the same data directory. The
	// rebind can briefly race the dying listener.
	var ln2 net.Listener
	for i := 0; ; i++ {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	s2, b2, log2 := boot(ln2)
	defer func() {
		s2.Close()
		b2.Close()
		log2.Close()
	}()
	pub(b2, 31, 60)

	// Every durable event 1..60 exactly once, in order, across the kill.
	seen := make(map[uint64]bool)
	last := uint64(0)
	timeout := time.After(15 * time.Second)
	for len(seen) < 60 {
		select {
		case ev := <-rc.Events():
			if seen[ev.Seq] {
				t.Fatalf("Seq %d delivered twice", ev.Seq)
			}
			if ev.Seq <= last {
				t.Fatalf("Seq %d after %d: out of order", ev.Seq, last)
			}
			if want := fmt.Sprintf("e%d", ev.Seq); string(ev.Payload) != want {
				t.Fatalf("Seq %d payload %q, want %q", ev.Seq, ev.Payload, want)
			}
			seen[ev.Seq] = true
			last = ev.Seq
		case <-timeout:
			t.Fatalf("saw %d of 60 events (last %d)", len(seen), last)
		}
	}
}

// startDurableBroker is startDurableServer exposing the broker, for
// tests that publish in-process while driving the wire protocol.
func startDurableBroker(t *testing.T) (*broker.Broker, string) {
	t.Helper()
	log, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	b := broker.New(broker.Options{Log: log})
	s := NewServer(b)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve(ln) }()
	t.Cleanup(func() {
		s.Close()
		b.Close()
		log.Close()
	})
	return b, ln.Addr().String()
}

// TestReplayLiveBoundaryLossless: events published while a long replay
// streams must not fall into a gap at the replay/live boundary. The
// subscription uses a 1-slot buffer, so without the pump's backlog mode
// every live event racing the 400-record replay would overflow and be
// silently dropped before the pump went live.
func TestReplayLiveBoundaryLossless(t *testing.T) {
	// The publisher below runs in-process and never yields, and the
	// test's own reader is as busy: the pump needs a third CPU to take
	// each event off the 1-slot buffer before the next two arrive. With
	// fewer the broker's overflow policy drops them before any wire code
	// runs (DESIGN.md §16, "The replay/live boundary"); the staged test
	// below checks the same property without that dependence.
	if runtime.NumCPU() < 4 {
		t.Skip("needs 4 CPUs: publisher, reader and pump must run at once")
	}
	b, addr := startDurableBroker(t)
	pub := func(from, to int) error {
		for i := from; i <= to; i++ {
			if _, err := b.Publish(geometry.Point{float64(i%10 + 1)}, []byte(fmt.Sprintf("e%d", i))); err != nil {
				return fmt.Errorf("publish %d: %w", i, err)
			}
		}
		return nil
	}
	if err := pub(1, 400); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(20 * time.Second))
	req := &Message{Type: TypeSubscribe, FromOffset: 1, Buffer: 1,
		Rects: []Rect{RectToWire(geometry.NewRect(0, 100))}}
	if err := WriteMessage(conn, req); err != nil {
		t.Fatal(err)
	}

	// Race live publishes against the replay.
	pubErr := make(chan error, 1)
	go func() { pubErr <- pub(401, 800) }()

	seen := make(map[uint64]bool)
	last := uint64(0)
	for len(seen) < 800 {
		m, err := ReadMessage(conn)
		if err != nil {
			t.Fatalf("read after %d events: %v", len(seen), err)
		}
		if m.Type != TypeEvent { // the subscribe OK
			continue
		}
		if seen[m.Seq] {
			t.Fatalf("Seq %d delivered twice", m.Seq)
		}
		if m.Seq <= last {
			t.Fatalf("Seq %d after %d: out of order", m.Seq, last)
		}
		seen[m.Seq] = true
		last = m.Seq
	}
	if err := <-pubErr; err != nil {
		t.Fatal(err)
	}
}

// TestReplayLiveBoundaryLosslessStaged is TestReplayLiveBoundaryLossless
// with the race staged rather than left to the scheduler, so it holds on
// any machine. The server's
// socket writes are held at a gate, so the replay — more history than a
// connection may queue — is certainly still streaming while every live
// event is published. Each live publish waits for the pump to have taken
// the one before: a 1-slot buffer never overflows against a pump that
// drains it, and never empties against one that waits for the replay to
// end.
func TestReplayLiveBoundaryLosslessStaged(t *testing.T) {
	log, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	b := broker.New(broker.Options{Log: log})
	s := NewServer(b)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gl := &gatedListener{Listener: inner, conns: make(chan *gatedConn, 1)}
	go func() { _ = s.Serve(gl) }()
	t.Cleanup(func() {
		s.Close()
		b.Close()
		log.Close()
	})

	const history, live = 400, 400
	for i := 1; i <= history; i++ {
		if _, err := b.Publish(geometry.Point{float64(i%10 + 1)}, make([]byte, 1024)); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}

	conn, err := net.Dial("tcp", inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(20 * time.Second))
	release := (<-gl.conns).shut()
	req := &Message{Type: TypeSubscribe, FromOffset: 1, Buffer: 1,
		Rects: []Rect{RectToWire(geometry.NewRect(0, 100))}}
	if err := WriteMessage(conn, req); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the replay to start and back up behind the gate", 5*time.Second, func() bool {
		conns := serverConns(s)
		if len(conns) != 1 {
			return false
		}
		q, _ := conns[0].queued()
		return q > 0
	})

	for i := history + 1; i <= history+live; i++ {
		for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
			if subs := b.LagReport().Subs; len(subs) == 1 && subs[0].Buffered == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("event %d still buffered: the pump is not draining the subscription during the replay", i-1)
			}
		}
		if _, err := b.Publish(geometry.Point{float64(i%10 + 1)}, []byte(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	release()

	seen := make(map[uint64]bool)
	last := uint64(0)
	for len(seen) < history+live {
		m, err := ReadMessage(conn)
		if err != nil {
			t.Fatalf("read after %d events: %v", len(seen), err)
		}
		if m.Type != TypeEvent { // the subscribe OK
			continue
		}
		if seen[m.Seq] {
			t.Fatalf("Seq %d delivered twice", m.Seq)
		}
		if m.Seq <= last {
			t.Fatalf("Seq %d after %d: out of order", m.Seq, last)
		}
		seen[m.Seq] = true
		last = m.Seq
	}
}

// TestResumeFromZeroSkipsHistoryOnReconnect: SubscribeFrom(0) means
// "new events only". A reconnect before the first event has been
// delivered has no high-water mark to resume from and must subscribe
// live again — not replay the server's entire retained log.
func TestResumeFromZeroSkipsHistoryOnReconnect(t *testing.T) {
	dir := t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	boot := func(ln net.Listener) (*Server, *broker.Broker, *wal.Log) {
		log, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		b := broker.New(broker.Options{Log: log})
		s := NewServer(b)
		go func() { _ = s.Serve(ln) }()
		return s, b, log
	}
	s1, b1, log1 := boot(ln)
	// 30 events of durable history the subscriber never asked to see.
	for i := 1; i <= 30; i++ {
		if _, err := b1.Publish(geometry.Point{1}, []byte(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	rc, err := DialReconnecting(addr, ReconnectOptions{
		InitialBackoff: 10 * time.Millisecond,
		MaxBackoff:     100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := rc.SubscribeFrom(0, geometry.NewRect(0, 1000)); err != nil {
		t.Fatal(err)
	}

	// Kill and restart before anything was delivered.
	s1.Close()
	b1.Close()
	log1.Close()
	var ln2 net.Listener
	for i := 0; ; i++ {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	s2, b2, log2 := boot(ln2)
	defer func() {
		s2.Close()
		b2.Close()
		log2.Close()
	}()

	// Publish fresh events until the reconnected subscription delivers
	// one; the first delivery must be post-outage, not replayed history.
	deadline := time.NewTimer(15 * time.Second)
	defer deadline.Stop()
	first := uint64(0)
	for i := 31; first == 0; i++ {
		if _, err := b2.Publish(geometry.Point{1}, []byte(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatal(err)
		}
		select {
		case ev := <-rc.Events():
			first = ev.Seq
		case <-time.After(20 * time.Millisecond):
		case <-deadline.C:
			t.Fatal("no event delivered after reconnect")
		}
	}
	if first <= 30 {
		t.Fatalf("first event after reconnect has Seq %d: retained history was replayed", first)
	}
	// Grace period: no stale history may trail in either.
	for {
		select {
		case ev := <-rc.Events():
			if ev.Seq <= 30 {
				t.Fatalf("history Seq %d delivered after live event %d", ev.Seq, first)
			}
		case <-time.After(200 * time.Millisecond):
			return
		}
	}
}

// TestResumeReplayLargerThanClientBuffer: a resume replay spanning an
// outage window larger than the Client's 1024-event buffer must arrive
// in full. The reconnect pump has to drain the replay while the
// resubscribe round trip is still in flight; without it the tail of the
// replay overflows client-side and the events are gone for good.
func TestResumeReplayLargerThanClientBuffer(t *testing.T) {
	dir := t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	boot := func(ln net.Listener) (*Server, *broker.Broker, *wal.Log) {
		log, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		b := broker.New(broker.Options{Log: log})
		s := NewServer(b)
		go func() { _ = s.Serve(ln) }()
		return s, b, log
	}
	s1, b1, log1 := boot(ln)

	rc, err := DialReconnecting(addr, ReconnectOptions{
		// The first redial lands comfortably after the post-restart
		// publishes below, so the resume replay streams while this test
		// is already draining Events().
		InitialBackoff: 150 * time.Millisecond,
		MaxBackoff:     300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := rc.SubscribeFrom(1, geometry.NewRect(0, 1000)); err != nil {
		t.Fatal(err)
	}

	pub := func(b *broker.Broker, from, to int) {
		t.Helper()
		for i := from; i <= to; i++ {
			if _, err := b.Publish(geometry.Point{float64(i%10 + 1)}, []byte(fmt.Sprintf("e%d", i))); err != nil {
				t.Fatalf("publish %d: %v", i, err)
			}
		}
	}
	seen := make(map[uint64]bool)
	last := uint64(0)
	recv := func(n int) {
		t.Helper()
		timeout := time.After(30 * time.Second)
		for len(seen) < n {
			select {
			case ev := <-rc.Events():
				if seen[ev.Seq] {
					t.Fatalf("Seq %d delivered twice", ev.Seq)
				}
				if ev.Seq <= last {
					t.Fatalf("Seq %d after %d: out of order", ev.Seq, last)
				}
				seen[ev.Seq] = true
				last = ev.Seq
			case <-timeout:
				t.Fatalf("saw %d of %d events (last %d)", len(seen), n, last)
			}
		}
	}
	pub(b1, 1, 20)
	recv(20) // high-water mark is now 20

	// Kill, restart over the same log, and publish an outage window
	// half again larger than the Client's event buffer.
	s1.Close()
	b1.Close()
	log1.Close()
	var ln2 net.Listener
	for i := 0; ; i++ {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	s2, b2, log2 := boot(ln2)
	defer func() {
		s2.Close()
		b2.Close()
		log2.Close()
	}()
	pub(b2, 21, 1620)
	recv(1620)
}

// TestInitialSubscribeFromLargeHistory: the very first SubscribeFrom
// against durable history larger than the Client's event buffer must
// deliver it all. This exercises the app-initiated subscribe path (not
// resubscribe): the pump backlogs the replay during the round trip, and
// if the buffer overflowed anyway the connection is retired so the
// redial loop fetches the rest — the application just sees a complete,
// in-order stream.
func TestInitialSubscribeFromLargeHistory(t *testing.T) {
	b, addr := startDurableBroker(t)
	for i := 1; i <= 1600; i++ {
		if _, err := b.Publish(geometry.Point{float64(i%10 + 1)}, []byte(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}

	rc, err := DialReconnecting(addr, ReconnectOptions{
		InitialBackoff: 10 * time.Millisecond,
		MaxBackoff:     100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := rc.SubscribeFrom(1, geometry.NewRect(0, 1000)); err != nil {
		t.Fatal(err)
	}

	seen := make(map[uint64]bool)
	last := uint64(0)
	timeout := time.After(30 * time.Second)
	for len(seen) < 1600 {
		select {
		case ev := <-rc.Events():
			if seen[ev.Seq] {
				t.Fatalf("Seq %d delivered twice", ev.Seq)
			}
			if ev.Seq <= last {
				t.Fatalf("Seq %d after %d: out of order", ev.Seq, last)
			}
			seen[ev.Seq] = true
			last = ev.Seq
		case <-timeout:
			t.Fatalf("saw %d of 1600 events (last %d)", len(seen), last)
		}
	}
}

// TestReplayReadFailureEndsTheRequest: a replay that fails reading the
// log ends its request at the error reply. On a durable server whose
// only segment is corrupted after the fact, a resuming subscribe and a
// pure replay on one raw connection each read exactly one frame, the
// error, and a ping after each reads its own ok; the resuming
// subscription is not left registered. Through Client, SubscribeFrom
// and Replay fail and the next Ping succeeds.
func TestReplayReadFailureEndsTheRequest(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	b := broker.New(broker.Options{Log: log})
	s := NewServer(b)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve(ln) }()
	t.Cleanup(func() {
		s.Close()
		b.Close()
		log.Close()
	})
	addr := ln.Addr().String()
	if _, err := b.Publish(geometry.Point{5}, []byte("only")); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v (%v), want one", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	p := dialRaw(t, addr)
	for _, req := range []*Message{
		{Type: TypeSubscribe, Rects: []Rect{RectToWire(geometry.NewRect(0, 10))}, FromOffset: 1, Group: true},
		{Type: TypeSubscribe, FromOffset: 1},
	} {
		p.send(req)
		if m, body := p.recv(); m.Type != TypeError || !strings.Contains(m.Error, "replay") {
			t.Fatalf("a replay from a corrupt log (rects %d) replied %s, want the replay error", len(req.Rects), body)
		}
		p.send(&Message{Type: TypePing})
		if m, body := p.recv(); m.Type != TypeOK || m.SubID != 0 || m.Delivered != 0 {
			t.Fatalf("the ping after a failed replay read %s, want its own ok", body)
		}
	}
	// Nothing else is on the stream: no late ok of a failed request.
	_ = p.conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	var one [1]byte
	if n, err := p.conn.Read(one[:]); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read %d bytes (%v) after the last ping's reply, want none", n, err)
	}
	if n := b.Stats().Subscriptions; n != 0 {
		t.Fatalf("%d subscriptions registered after failed resumes, want 0", n)
	}

	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.SubscribeFrom(1, geometry.NewRect(0, 10)); err == nil {
		t.Fatal("SubscribeFrom over a corrupt log succeeded")
	}
	if evs, err := cli.Replay(1); err == nil {
		t.Fatalf("Replay over a corrupt log succeeded with %d events", len(evs))
	}
	if err := cli.Ping(); err != nil {
		t.Fatalf("Ping after the failed replays: %v", err)
	}
	if n := b.Stats().Subscriptions; n != 0 {
		t.Fatalf("%d subscriptions registered after failed resumes, want 0", n)
	}
}
