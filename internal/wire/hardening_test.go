package wire

import (
	"context"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/geometry"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// checkGoroutines waits for the goroutine count to settle back to the
// baseline (small tolerance for runtime helpers).
func checkGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			k := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: baseline %d, now %d\n%s", base, n, buf[:k])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func startHardenedServer(t *testing.T, opts ServerOptions) (*Server, *broker.Broker, string) {
	t.Helper()
	b := broker.New(broker.Options{})
	s := NewServerWith(b, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve(ln) }()
	t.Cleanup(func() {
		s.Close()
		b.Close()
	})
	return s, b, ln.Addr().String()
}

func TestShutdownDrainsBufferedEvents(t *testing.T) {
	s, _, addr := startHardenedServer(t, ServerOptions{WriteTimeout: 2 * time.Second})

	sub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if _, err := sub.Subscribe(geometry.NewRect(0, 10)); err != nil {
		t.Fatal(err)
	}
	const events = 50
	for i := 0; i < events; i++ {
		if n, err := pub.Publish(geometry.Point{5}, []byte{byte(i)}); err != nil || n != 1 {
			t.Fatalf("publish %d: n=%d err=%v", i, n, err)
		}
	}

	// Every published event is now buffered server-side. A graceful
	// shutdown must flush all of them to the subscriber before closing.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	got := 0
	for range sub.Events() {
		got++
	}
	if got != events {
		t.Errorf("subscriber received %d of %d events across graceful drain", got, events)
	}
}

func TestShutdownDrainsWithKeepalivePeerStillConnected(t *testing.T) {
	// Regression: the keepalive pinger is one of the connection's pumps,
	// and the connection only closes after the pumps exit. A drain that
	// does not stop the pinger therefore deadlocks until the context
	// expires whenever a pinging peer is still connected.
	s, _, addr := startHardenedServer(t, ServerOptions{IdleTimeout: time.Second})

	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Subscribe(geometry.NewRect(0, 10)); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with connected peer: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("drain of an idle peer took %v, should be nearly immediate", d)
	}
}

func TestShutdownIsIdempotentAndUnblocksServe(t *testing.T) {
	b := broker.New(broker.Options{})
	defer b.Close()
	s := NewServer(b)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	waitFor(t, "server accepting", 2*time.Second, func() bool {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return false
		}
		c.Close()
		return true
	})
	ctx := context.Background()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	s.Close() // Close after Shutdown is a no-op, not a panic
	select {
	case <-served:
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
}

func TestShutdownContextExpiryHardCloses(t *testing.T) {
	s, _, addr := startHardenedServer(t, ServerOptions{}) // no write timeout: pump can wedge

	// A subscriber that never reads: its TCP buffers fill and the event
	// pump blocks mid-write forever.
	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if err := WriteMessage(stalled, &Message{Type: TypeSubscribe, Rects: []Rect{RectToWire(geometry.NewRect(0, 10))}}); err != nil {
		t.Fatal(err)
	}
	if m, err := ReadMessage(stalled); err != nil || m.Type != TypeOK {
		t.Fatalf("subscribe reply: %+v err=%v", m, err)
	}

	pub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	// Enough backlog that the OS socket buffers cannot absorb it: the
	// pump must block mid-write.
	big := make([]byte, 512<<10)
	for i := 0; i < 40; i++ {
		if _, err := pub.Publish(geometry.Point{5}, big); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = s.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 3*time.Second {
		t.Error("shutdown did not hard-close promptly after ctx expiry")
	}
}

func TestWriteDeadlineEvictsStalledPeer(t *testing.T) {
	_, b, addr := startHardenedServer(t, ServerOptions{WriteTimeout: 150 * time.Millisecond})

	// Subscribe from a raw connection and then stop reading entirely.
	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if err := WriteMessage(stalled, &Message{Type: TypeSubscribe, Rects: []Rect{RectToWire(geometry.NewRect(0, 10))}}); err != nil {
		t.Fatal(err)
	}
	if m, err := ReadMessage(stalled); err != nil || m.Type != TypeOK {
		t.Fatalf("subscribe reply: %+v err=%v", m, err)
	}
	if got := b.Stats().Subscriptions; got != 1 {
		t.Fatalf("subscriptions = %d", got)
	}

	// Flood with large events until the peer's TCP buffers fill, the
	// pump's write blocks, and the write deadline evicts the connection.
	pub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	big := make([]byte, 256<<10)
	deadline := time.Now().Add(10 * time.Second)
	for b.Stats().Subscriptions != 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled peer never evicted by write deadline")
		}
		if _, err := pub.Publish(geometry.Point{5}, big); err != nil {
			t.Fatalf("publish: %v", err)
		}
	}

	// The healthy publisher connection is unaffected by the eviction.
	if err := pub.Ping(); err != nil {
		t.Errorf("publisher broken after peer eviction: %v", err)
	}
}

func TestIdleTimeoutEvictsSilentConn(t *testing.T) {
	_, b, addr := startHardenedServer(t, ServerOptions{IdleTimeout: 150 * time.Millisecond})

	// A raw connection that subscribes and then goes completely silent —
	// it does not even answer the server's keepalive pings, like a
	// half-open TCP connection whose peer died.
	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	if err := WriteMessage(silent, &Message{Type: TypeSubscribe, Rects: []Rect{RectToWire(geometry.NewRect(0, 10))}}); err != nil {
		t.Fatal(err)
	}
	if m, err := ReadMessage(silent); err != nil || m.Type != TypeOK {
		t.Fatalf("subscribe reply: %+v err=%v", m, err)
	}
	waitFor(t, "silent peer eviction", 5*time.Second, func() bool {
		return b.Stats().Subscriptions == 0
	})
}

func TestPingKeepsIdleClientAlive(t *testing.T) {
	_, b, addr := startHardenedServer(t, ServerOptions{IdleTimeout: 150 * time.Millisecond})

	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Subscribe(geometry.NewRect(0, 10)); err != nil {
		t.Fatal(err)
	}
	// The client sends nothing on its own, but answers server pings with
	// pongs; several idle periods later it must still be registered.
	time.Sleep(600 * time.Millisecond)
	if got := b.Stats().Subscriptions; got != 1 {
		t.Fatalf("idle but live client evicted (subscriptions = %d)", got)
	}
	if err := cli.Ping(); err != nil {
		t.Fatalf("ping after idle period: %v", err)
	}
}

func TestServerIgnoresUnsolicitedPong(t *testing.T) {
	_, _, addr := startHardenedServer(t, ServerOptions{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteMessage(conn, &Message{Type: TypePong}); err != nil {
		t.Fatal(err)
	}
	// The pong must not produce an error reply; the next ping's OK is
	// the first frame back.
	if err := WriteMessage(conn, &Message{Type: TypePing}); err != nil {
		t.Fatal(err)
	}
	m, err := ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != TypeOK {
		t.Errorf("reply = %+v, want ok", m)
	}
}

func TestNoGoroutineLeaksAcrossLifecycles(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		b := broker.New(broker.Options{})
		s := NewServerWith(b, ServerOptions{
			WriteTimeout: time.Second,
			IdleTimeout:  time.Second,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = s.Serve(ln) }()
		addr := ln.Addr().String()

		rc, err := DialReconnecting(addr, ReconnectOptions{InitialBackoff: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rc.Subscribe(geometry.NewRect(0, 10)); err != nil {
			t.Fatal(err)
		}
		cli, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Publish(geometry.Point{5}, []byte("x")); err != nil {
			t.Fatal(err)
		}
		// A connection's goroutines are its reader, writer, pump and
		// pinger, however many subscriptions it holds.
		if _, err := cli.Subscribe(geometry.NewRect(0, 10)); err != nil {
			t.Fatal(err)
		}
		one := runtime.NumGoroutine()
		for k := 0; k < 40; k++ {
			if _, err := cli.Subscribe(geometry.NewRect(0, 10)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := cli.Publish(geometry.Point{5}, []byte("y")); err != nil {
			t.Fatal(err)
		}
		if many := runtime.NumGoroutine(); many > one {
			t.Fatalf("%d goroutines with one subscription on the connection, %d with 41", one, many)
		}
		if err := rc.Close(); err != nil {
			t.Fatal(err)
		}
		cli.Close()
		if i%2 == 0 {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			if err := s.Shutdown(ctx); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
			cancel()
		} else {
			s.Close()
		}
		b.Close()
	}
	checkGoroutines(t, base)
}
