package wire

import (
	"net"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/geometry"
	"repro/internal/telemetry"
)

func gaugeValue(t *testing.T, reg *telemetry.Registry, name string) float64 {
	t.Helper()
	for _, f := range reg.Gather() {
		if f.Name == name && len(f.Samples) > 0 {
			return f.Samples[0].Value
		}
	}
	t.Fatalf("gauge %s not registered", name)
	return 0
}

func TestServerMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := broker.New(broker.Options{Metrics: reg})
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
	if _, err := cli.Publish(geometry.Point{5}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Wait for the event pump to write the event frame.
	select {
	case <-cli.Events():
	case <-time.After(2 * time.Second):
		t.Fatal("no event within deadline")
	}

	if got := reg.CounterValue("pubsub_wire_connections_total"); got != 1 {
		t.Errorf("connections total = %g, want 1", got)
	}
	if got := gaugeValue(t, reg, "pubsub_wire_active_connections"); got != 1 {
		t.Errorf("active connections = %g, want 1", got)
	}
	if got := reg.CounterValue("pubsub_wire_bytes_read_total"); got == 0 {
		t.Error("no bytes counted in")
	}
	if got := reg.CounterValue("pubsub_wire_bytes_written_total"); got == 0 {
		t.Error("no bytes counted out")
	}
	// Two requests (subscribe, publish) read; at least two OK replies
	// plus the event frame written.
	if got := reg.CounterValue("pubsub_wire_frames_read_total"); got != 2 {
		t.Errorf("frames read = %g, want 2", got)
	}
	// A frame counts as written once its batch's socket write has
	// returned, which the peer can observe a moment before the writer
	// goroutine gets to the counters.
	waitFor(t, "three frames counted as written", 2*time.Second, func() bool {
		return reg.CounterValue("pubsub_wire_frames_written_total") >= 3 &&
			reg.Histogram1("pubsub_wire_write_seconds").Count >= 3
	})

	// Disconnect: the active-connection gauge returns to zero.
	_ = cli.Close()
	deadline := time.Now().Add(2 * time.Second)
	for gaugeValue(t, reg, "pubsub_wire_active_connections") != 0 {
		if time.Now().After(deadline) {
			t.Fatal("active connections never returned to 0")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A grouped frame is one frame, one write-latency sample and one write
// stage sample, and as many event deliveries as it lists ids.
func TestServerMetricsCountGroupedFrameOnce(t *testing.T) {
	reg := telemetry.NewRegistry()
	cs, gc, peer := pipeConn(t, true)
	cs.tel = newWireTel(reg) // the idle writer reads it only after the first frame's wake-up

	release := holdWriter(t, cs, gc)
	if err := cs.writeEvent(&broker.Event{Point: geometry.Point{5}, Seq: 1, TraceID: 9}, []int{0, 1, 2, 3, 4}, 0); err != nil {
		t.Fatal(err)
	}
	if err := cs.write(&Message{Type: TypeEvent, Point: []float64{5}, Seq: 2}); err != nil { // plain: a pure replay's
		t.Fatal(err)
	}
	release()
	_ = peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < 3; i++ { // the ping, the grouped frame, the plain one
		if _, err := ReadMessage(peer); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the batch to be counted", 2*time.Second, func() bool {
		return reg.CounterValue("pubsub_wire_frames_written_total") == 3
	})
	if got := reg.CounterValue("pubsub_wire_events_written_total"); got != 6 {
		t.Errorf("events written = %g, want 6", got)
	}
	if got := reg.Histogram1("pubsub_wire_write_seconds").Count; got != 3 {
		t.Errorf("write latency samples = %d, want 3", got)
	}
	if got := cs.tel.stageWrite.Count(); got != 2 {
		t.Errorf("write stage samples = %d, want 2 (one per event frame)", got)
	}
}

func TestServerKeepaliveMissMetric(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := broker.New(broker.Options{})
	// Idle timeout with pings disabled: a silent peer expires and counts
	// as a keepalive miss.
	s := NewServerWith(b, ServerOptions{IdleTimeout: 60 * time.Millisecond, PingInterval: -1, Metrics: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve(ln) }()
	defer func() {
		s.Close()
		b.Close()
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	deadline := time.Now().Add(2 * time.Second)
	for reg.CounterValue("pubsub_wire_keepalive_misses_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("keepalive miss never counted")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestReconnectMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := broker.New(broker.Options{})
	s := NewServer(b)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go func() { _ = s.Serve(ln) }()

	rc, err := DialReconnecting(addr, ReconnectOptions{
		InitialBackoff: 10 * time.Millisecond,
		Metrics:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := rc.Subscribe(geometry.NewRect(0, 10)); err != nil {
		t.Fatal(err)
	}

	// Kill the server, then bring a new one up on the same address.
	s.Close()
	b.Close()
	var ln2 net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	b2 := broker.New(broker.Options{})
	s2 := NewServer(b2)
	go func() { _ = s2.Serve(ln2) }()
	defer func() {
		s2.Close()
		b2.Close()
	}()

	deadline = time.Now().Add(5 * time.Second)
	for reg.CounterValue("pubsub_wire_reconnects_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no reconnect counted (attempts=%g)",
				reg.CounterValue("pubsub_wire_reconnect_attempts_total"))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if reg.CounterValue("pubsub_wire_reconnect_attempts_total") == 0 {
		t.Error("reconnect succeeded without any attempt counted")
	}
}
