package wire

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/faultnet"
	"repro/internal/geometry"
	"repro/internal/telemetry"
)

func TestDialReconnectingFailsFast(t *testing.T) {
	if _, err := DialReconnecting("127.0.0.1:1", ReconnectOptions{}); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestReconnectingSurvivesServerRestart(t *testing.T) {
	// Start a server on a concrete port we can rebind after shutdown.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	b1 := broker.New(broker.Options{})
	s1 := NewServer(b1)
	go func() { _ = s1.Serve(ln) }()

	rc, err := DialReconnecting(addr, ReconnectOptions{InitialBackoff: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := rc.Subscribe(geometry.NewRect(0, 10)); err != nil {
		t.Fatal(err)
	}

	// First generation works.
	if n, err := rc.Publish(geometry.Point{5}, []byte("one")); err != nil || n != 1 {
		t.Fatalf("first publish: n=%d err=%v", n, err)
	}
	select {
	case ev := <-rc.Events():
		if string(ev.Payload) != "one" {
			t.Fatalf("payload %q", ev.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no event before restart")
	}

	// Kill the server; bring up a fresh broker on the same address.
	s1.Close()
	b1.Close()
	var ln2 net.Listener
	deadline := time.Now().Add(3 * time.Second)
	for {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	b2 := broker.New(broker.Options{})
	s2 := NewServer(b2)
	go func() { _ = s2.Serve(ln2) }()
	defer func() { s2.Close(); b2.Close() }()

	// Wait for the client to reconnect and resubscribe.
	deadline = time.Now().Add(5 * time.Second)
	for b2.Stats().Subscriptions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("client never resubscribed on the new server")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Publishing through the reconnected client reaches the replayed
	// subscription.
	deadline = time.Now().Add(5 * time.Second)
	for {
		n, err := rc.Publish(geometry.Point{5}, []byte("two"))
		if err == nil && n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("publish after restart: n=%d err=%v", n, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for {
		select {
		case ev := <-rc.Events():
			if string(ev.Payload) == "two" {
				return // success
			}
		case <-time.After(2 * time.Second):
			t.Fatal("no event after restart")
		}
	}
}

func TestReconnectingSubscribeValidation(t *testing.T) {
	_, addr := startServer(t)
	rc, err := DialReconnecting(addr, ReconnectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := rc.Subscribe(); err == nil {
		t.Error("empty subscribe accepted")
	}
	// Handles are stable and distinct.
	a, err := rc.Subscribe(geometry.NewRect(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := rc.Subscribe(geometry.NewRect(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("duplicate local handles")
	}
}

func TestReconnectingCloseIsFinal(t *testing.T) {
	_, addr := startServer(t)
	rc, err := DialReconnecting(addr, ReconnectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := rc.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if _, err := rc.Subscribe(geometry.NewRect(0, 1)); err == nil {
		t.Error("subscribe after close accepted")
	}
	if _, err := rc.Publish(geometry.Point{1}, nil); err == nil {
		t.Error("publish after close accepted")
	}
	if _, open := <-rc.Events(); open {
		t.Error("events channel open after close")
	}
}

// TestReconnectingCallsDoNotWaitForTheReader: a replay the application
// has not read yet holds up nothing but Events(). One goroutine makes a
// resuming subscription over a durable history of 1 600 records, more
// than the merged buffer and the connection's buffer hold, in one
// replay, then subscribes again, publishes, unsubscribes the first
// subscription and reads Dropped before it reads a single event; each
// call returns promptly, no redial is attempted, and the history then
// arrives exactly once, in Seq order.
func TestReconnectingCallsDoNotWaitForTheReader(t *testing.T) {
	const history = 1600
	b, addr := startDurableBroker(t)
	for i := 1; i <= history; i++ {
		if _, err := b.Publish(geometry.Point{float64(i%10 + 1)}, []byte(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	reg := telemetry.NewRegistry()
	rc, err := DialReconnecting(addr, ReconnectOptions{InitialBackoff: 10 * time.Millisecond, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	// On failure a call may still be blocked: reading Events() releases it.
	t.Cleanup(func() {
		go func() {
			for range rc.Events() {
			}
		}()
		rc.Close()
	})
	within := func(what string, call func() error) {
		t.Helper()
		errc := make(chan error, 1)
		go func() { errc <- call() }()
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s blocked for 2 s with Events() unread", what)
		}
	}

	var a int
	within("SubscribeFrom(1)", func() (err error) {
		a, err = rc.SubscribeFrom(1, geometry.NewRect(0, 1000))
		return err
	})
	within("SubscribeFrom(history)", func() error {
		_, err := rc.SubscribeFrom(history, geometry.NewRect(5000, 6000))
		return err
	})
	within("Publish", func() error {
		n, err := rc.Publish(geometry.Point{-5}, nil)
		if err == nil && n != 0 {
			err = fmt.Errorf("delivered to %d subscriptions, want 0", n)
		}
		return err
	})
	within("Unsubscribe", func() error { return rc.Unsubscribe(a) })
	within("Dropped", func() error { rc.Dropped(); return nil })

	timeout := time.After(30 * time.Second)
	for want := uint64(1); want <= history; want++ {
		select {
		case ev := <-rc.Events():
			if ev.Seq != want {
				t.Fatalf("Seq %d, want %d", ev.Seq, want)
			}
		case <-timeout:
			t.Fatalf("saw %d of %d events", want-1, history)
		}
	}
	if n := gaugeValue(t, reg, "pubsub_wire_reconnect_attempts_total"); n != 0 {
		t.Fatalf("%g redial attempts, want 0", n)
	}
	within("Close", rc.Close)
}

// TestReconnectingRecordsToItsRecorder: a connection's client_publish
// and client_recv records go to ReconnectOptions.Recorder, the one the
// client's redial and resume records go to.
func TestReconnectingRecordsToItsRecorder(t *testing.T) {
	_, addr := startServer(t)
	rec := telemetry.NewRecorder(64)
	rc, err := DialReconnecting(addr, ReconnectOptions{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := rc.Subscribe(geometry.NewRect(0, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Publish(geometry.Point{5}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-rc.Events():
	case <-time.After(5 * time.Second):
		t.Fatal("no event")
	}
	// The reader records an event after handing it over: poll.
	waitFor(t, "client_recv record", 5*time.Second, func() bool {
		return len(rec.SnapshotFilter(0, telemetry.KindClientRecv, 0)) == 1
	})
	if n := len(rec.SnapshotFilter(0, telemetry.KindClientPublish, 0)); n != 1 {
		t.Fatalf("%d client_publish records in the client's recorder, want 1", n)
	}
}

// TestReconnectResubscribesInHandleOrder: after a server restart the
// subscriptions are replayed in handle order, so the new server's ids
// rise with the handles, whatever the run.
func TestReconnectResubscribesInHandleOrder(t *testing.T) {
	const subs = 16
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	b1 := broker.New(broker.Options{})
	s1 := NewServer(b1)
	go func() { _ = s1.Serve(ln) }()

	rc, err := DialReconnecting(addr, ReconnectOptions{InitialBackoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	for i := 0; i < subs; i++ {
		if _, err := rc.Subscribe(geometry.NewRect(float64(i), float64(i)+0.5)); err != nil {
			t.Fatal(err)
		}
	}

	s1.Close()
	b1.Close()
	var ln2 net.Listener
	waitFor(t, "rebind", 3*time.Second, func() bool {
		ln2, err = net.Listen("tcp", addr)
		return err == nil
	})
	b2 := broker.New(broker.Options{})
	s2 := NewServer(b2)
	go func() { _ = s2.Serve(ln2) }()
	defer func() { s2.Close(); b2.Close() }()
	waitFor(t, "resubscribe", 5*time.Second, func() bool { return b2.Stats().Subscriptions == subs })

	// The owner runs this after the resubscribe that b2 just counted.
	var handles, ids []int
	if err := rc.do(func(o *owner) error {
		for _, rs := range o.subs {
			handles, ids = append(handles, rs.handle), append(ids, rs.serverID)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ids); i++ {
		if handles[i] <= handles[i-1] || ids[i] <= ids[i-1] {
			t.Fatalf("handles %v got server ids %v: want both rising", handles, ids)
		}
	}
}

// TestReconnectingConcurrentCallers: goroutines subscribe, publish and
// unsubscribe through one reconnecting client while its connection is
// reset under them. Every call returns; once they stop, no subscription
// is left on the server, and Close ends everything the client started.
func TestReconnectingConcurrentCallers(t *testing.T) {
	base := runtime.NumGoroutine()
	h := startChaos(t, faultnet.Options{Seed: 3}, ServerOptions{})
	go func() {
		for range h.rc.Events() {
		}
	}()
	const callers, rounds = 4, 25
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rect, p := geometry.NewRect(float64(g), float64(g)+0.5), geometry.Point{float64(g) + 0.25}
			for k := 0; k < rounds; k++ {
				handle, err := h.rc.Subscribe(rect)
				if err != nil {
					continue // the connection was being reset
				}
				_, _ = h.rc.Publish(p, nil)
				if err := h.rc.Unsubscribe(handle); err != nil {
					t.Errorf("caller %d: unsubscribe %d: %v", g, handle, err)
				}
			}
		}(g)
	}
	for i := 0; i < 3; i++ {
		time.Sleep(5 * time.Millisecond)
		h.fn.ResetAll()
	}
	wg.Wait()
	waitFor(t, "no subscription left", 10*time.Second, func() bool { return h.b.Stats().Subscriptions == 0 })

	if err := h.rc.Close(); err != nil {
		t.Fatal(err)
	}
	h.srv.Close()
	h.b.Close()
	checkGoroutines(t, base)
}
