package wire

import (
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/geometry"
	"repro/internal/health"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

func TestConnLagTracking(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := broker.New(broker.Options{})
	s := NewServerWith(b, ServerOptions{Metrics: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve(ln) }()
	defer func() {
		s.Close()
		b.Close()
	}()

	cli, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Subscribe(geometry.NewRect(0, 10)); err != nil {
		t.Fatal(err)
	}

	lags := s.ConnLags()
	if len(lags) != 1 || lags[0].LagEvents != 0 || lags[0].Subs != 1 {
		t.Fatalf("fresh connection should have zero lag: %+v", lags)
	}

	// A matching publish advances the head and, once the pump writes the
	// frame, the connection's high-water mark follows it back to zero lag.
	if _, err := cli.Publish(geometry.Point{5}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-cli.Events():
	case <-time.After(2 * time.Second):
		t.Fatal("no event within deadline")
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		lags = s.ConnLags()
		if len(lags) == 1 && lags[0].LagEvents == 0 && lags[0].LastSeq == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("conn never caught up to head: %+v", lags)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A non-matching publish advances the head but writes no frame: the
	// connection's lag is the resume depth, exactly like a subscription's.
	if _, err := cli.Publish(geometry.Point{500}, nil); err != nil {
		t.Fatal(err)
	}
	lags = s.ConnLags()
	if len(lags) != 1 || lags[0].LagEvents != 1 || lags[0].LastSeq != 1 {
		t.Fatalf("non-matching publish should leave lag 1: %+v", lags)
	}
	if got := gaugeValue(t, reg, "pubsub_wire_max_conn_lag_events"); got != 1 {
		t.Fatalf("max conn lag gauge = %g, want 1", got)
	}
}

func TestServerHealthKeepaliveMissRate(t *testing.T) {
	hr := health.NewRegistry()
	b := broker.New(broker.Options{})
	s := NewServerWith(b, ServerOptions{IdleTimeout: 60 * time.Millisecond, PingInterval: -1})
	s.RegisterHealth(hr)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve(ln) }()
	defer b.Close()

	if rep := hr.Evaluate(); rep.State != health.Healthy {
		t.Fatalf("fresh server should be healthy: %+v", rep.Results)
	}

	// A silent peer expires on the idle timeout and counts as a miss; the
	// next probe sees the delta and degrades.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	deadline := time.Now().Add(2 * time.Second)
	for s.keepMisses.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("keepalive miss never counted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if rep := hr.Evaluate(); rep.State != health.Degraded {
		t.Fatalf("missed keepalive should degrade: %+v", rep.Results)
	}
	// The rate check diffs between probes: with no new misses the next
	// probe is healthy again.
	if rep := hr.Evaluate(); rep.State != health.Healthy {
		t.Fatalf("stale miss should not degrade forever: %+v", rep.Results)
	}

	s.Close()
	if rep := hr.Evaluate(); rep.State != health.Unhealthy {
		t.Fatalf("closed server should be unhealthy: %+v", rep.Results)
	}
}

func TestServerHealthAcceptLoopDeath(t *testing.T) {
	hr := health.NewRegistry()
	b := broker.New(broker.Options{})
	defer b.Close()
	s := NewServer(b)
	s.RegisterHealth(hr)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = s.Serve(ln)
	}()
	// Kill the listener out from under the server without closing it:
	// the accept loop dies while the server still looks open.
	time.Sleep(10 * time.Millisecond)
	_ = ln.Close()
	select {
	case <-serveDone:
	case <-time.After(2 * time.Second):
		t.Fatal("Serve never returned after listener close")
	}
	rep := hr.Evaluate()
	if rep.State != health.Unhealthy {
		t.Fatalf("dead accept loop should be unhealthy: %+v", rep.Results)
	}
	s.Close()
}

// TestClientFirstDropFlag drives a client over an in-memory pipe past
// its event buffer: the drop that opens the loss window must carry
// first_drop=1 in its flight record, subsequent drops 0.
func TestClientFirstDropFlag(t *testing.T) {
	// Every record lands in the read loop's shard: 8 × 2048 slots hold
	// all 1027 of them.
	rec := telemetry.NewRecorder(16384)
	server, clientConn := net.Pipe()
	cli := NewClientWith(clientConn, ClientOptions{Recorder: rec})
	defer cli.Close()
	defer server.Close()

	// The client's event buffer holds 1024; write 1027 frames without
	// draining so the last three drop. net.Pipe is synchronous, so each
	// write returns only after the read loop consumed the frame.
	for i := 1; i <= 1027; i++ {
		msg := &Message{Type: TypeEvent, Point: []float64{1}, Seq: uint64(i), SubID: 1}
		if err := WriteMessage(server, msg); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	// Ping/pong barrier: the client answers from the same read loop, so
	// the pong proves every prior frame has been enqueued or dropped.
	if err := WriteMessage(server, &Message{Type: TypePing}); err != nil {
		t.Fatal(err)
	}
	if m, err := ReadMessage(server); err != nil || m.Type != TypePong {
		t.Fatalf("barrier pong = %v/%v", m, err)
	}
	if d := cli.Dropped(); d != 3 {
		t.Fatalf("dropped = %d, want 3", d)
	}
	if seq, ok := cli.FirstDropped(); !ok || seq != 1025 {
		t.Fatalf("first dropped = %d/%v, want 1025/true", seq, ok)
	}
	var delivered, first, later int
	for _, r := range rec.SnapshotFilter(0, telemetry.KindClientRecv, 0) {
		if r.Args[1] != 1 {
			t.Fatalf("record %+v of a one-id frame, want subs=1", r)
		}
		if r.Args[2] != 1 {
			delivered++ // one record per delivering frame
			continue
		}
		if r.Args[3] == 1 {
			first++
			if r.Seq != 1025 {
				t.Fatalf("first_drop record at Seq %d, want 1025", r.Seq)
			}
		} else {
			later++
		}
	}
	if delivered != 1024 || first != 1 || later != 2 {
		t.Fatalf("records delivered=%d first drop=%d later drops=%d, want 1024/1/2", delivered, first, later)
	}
}

// TestReconnectResumeVisibility restarts a durable server under a
// resuming client and checks the redial leaves a client_resume flight
// record and an accurate LastSeq high-water mark.
func TestReconnectResumeVisibility(t *testing.T) {
	rec := telemetry.NewRecorder(4096)
	reg := telemetry.NewRegistry()
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
		InitialBackoff: 10 * time.Millisecond,
		MaxBackoff:     100 * time.Millisecond,
		Metrics:        reg,
		Recorder:       rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := rc.SubscribeFrom(1, geometry.NewRect(0, 1000)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if _, err := b1.Publish(geometry.Point{float64(i)}, []byte(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		select {
		case <-rc.Events():
		case <-time.After(5 * time.Second):
			t.Fatalf("saw %d of 5 events before restart", i)
		}
	}
	// forward stores lastSeq after its send, so a received event can be
	// ahead of it: poll.
	waitFor(t, "LastSeq 5", 5*time.Second, func() bool { return rc.LastSeq() == 5 })

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
	for i := 6; i <= 8; i++ {
		if _, err := b2.Publish(geometry.Point{float64(i)}, []byte(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		select {
		case <-rc.Events():
		case <-time.After(10 * time.Second):
			t.Fatalf("saw %d of 3 events after restart", i)
		}
	}
	waitFor(t, "LastSeq 8 after resume", 5*time.Second, func() bool { return rc.LastSeq() == 8 })
	if got := gaugeValue(t, reg, "pubsub_wire_client_last_seq"); got != 8 {
		t.Fatalf("last_seq gauge = %g, want 8", got)
	}

	resumes := rec.SnapshotFilter(0, telemetry.KindClientResume, 0)
	if len(resumes) == 0 {
		t.Fatal("no client_resume flight record after redial")
	}
	r := resumes[len(resumes)-1]
	if r.Args[0] != 6 || r.Args[2] != 1 {
		t.Fatalf("client_resume record = %+v, want from=6 subs=1", r)
	}
}
