package wire

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/faultnet"
	"repro/internal/geometry"
)

// chaosHarness is a broker server behind a fault-injecting network plus
// a reconnecting client with live subscriptions.
type chaosHarness struct {
	fn   *faultnet.Network
	b    *broker.Broker
	srv  *Server
	rc   *ReconnectingClient
	addr string
}

func startChaos(t *testing.T, fopts faultnet.Options, sopts ServerOptions) *chaosHarness {
	t.Helper()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fn := faultnet.New(fopts)
	h := &chaosHarness{
		fn:   fn,
		b:    broker.New(broker.Options{}),
		addr: inner.Addr().String(),
	}
	h.srv = NewServerWith(h.b, sopts)
	go func() { _ = h.srv.Serve(fn.Listen(inner)) }()

	h.rc, err = DialReconnecting(h.addr, ReconnectOptions{
		InitialBackoff: 10 * time.Millisecond,
		MaxBackoff:     200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// publishDelivered publishes through the reconnecting client until the
// publish succeeds, returning the delivery count.
func (h *chaosHarness) publishDelivered(t *testing.T, p geometry.Point, payload []byte) int {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n, err := h.rc.Publish(p, payload)
		if err == nil {
			return n
		}
		if time.Now().After(deadline) {
			t.Fatalf("publish never succeeded: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// publishUntilReceived publishes uniquely-tagged events at p until one
// round-trips back on the merged event stream. Retrying end to end makes
// the check robust to the transient window where a dying connection
// generation's subscriptions still absorb a delivery.
func (h *chaosHarness) publishUntilReceived(t *testing.T, p geometry.Point, prefix string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for seq := 0; ; seq++ {
		payload := fmt.Sprintf("%s-%d", prefix, seq)
		n, err := h.rc.Publish(p, []byte(payload))
		if err == nil && n >= 1 {
			wait := time.After(700 * time.Millisecond)
		recv:
			for {
				select {
				case ev := <-h.rc.Events():
					if string(ev.Payload) == payload {
						return
					}
					// stale retries of earlier sequence numbers drain here
				case <-wait:
					break recv
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %q event ever received (last err %v)", prefix, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosReconnectSurvivesRepeatedResets is the acceptance scenario:
// under injected latency, chunked writes and repeated mid-stream resets
// the reconnecting client must replay every live subscription (and never
// a cancelled one) and keep receiving post-reconnect events, and the
// whole stack must shut down without leaking goroutines.
func TestChaosReconnectSurvivesRepeatedResets(t *testing.T) {
	base := runtime.NumGoroutine()
	h := startChaos(t,
		faultnet.Options{Seed: 42, Latency: 200 * time.Microsecond, MaxWriteChunk: 7},
		ServerOptions{WriteTimeout: 2 * time.Second, IdleTimeout: 5 * time.Second},
	)

	if _, err := h.rc.Subscribe(geometry.NewRect(0, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.rc.Subscribe(geometry.NewRect(20, 30)); err != nil {
		t.Fatal(err)
	}
	cancelled, err := h.rc.Subscribe(geometry.NewRect(40, 50))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.rc.Unsubscribe(cancelled); err != nil {
		t.Fatal(err)
	}

	for round := 1; round <= 4; round++ {
		if killed := h.fn.ResetAll(); killed == 0 {
			t.Fatalf("round %d: no connections to reset", round)
		}
		// The client must redial and replay exactly the two live
		// subscriptions — the cancelled handle stays gone.
		waitFor(t, fmt.Sprintf("round %d resubscribe", round), 10*time.Second, func() bool {
			return h.b.Stats().Subscriptions == 2
		})

		h.publishUntilReceived(t, geometry.Point{5}, fmt.Sprintf("round-%d", round))

		// The cancelled subscription's rectangle matches nobody.
		if n := h.publishDelivered(t, geometry.Point{45}, nil); n != 0 {
			t.Fatalf("round %d: cancelled subscription still live (n=%d)", round, n)
		}
	}

	// Bounded drops: the merged client buffer was never saturated, so
	// nothing was lost client-side on top of the at-most-once gaps
	// around each reset.
	if got := h.rc.Dropped(); got != 0 {
		t.Errorf("client dropped %d events", got)
	}

	if err := h.rc.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown under faults: %v", err)
	}
	h.b.Close()
	checkGoroutines(t, base)
}

// TestChaosPartitionEvictionAndRecovery partitions the network long
// enough for the server's idle timeout to evict the half-open peer,
// heals it, and requires full recovery (replayed subscriptions, flowing
// events).
func TestChaosPartitionEvictionAndRecovery(t *testing.T) {
	base := runtime.NumGoroutine()
	h := startChaos(t,
		faultnet.Options{Seed: 7},
		ServerOptions{WriteTimeout: time.Second, IdleTimeout: 100 * time.Millisecond},
	)
	if _, err := h.rc.Subscribe(geometry.NewRect(0, 10)); err != nil {
		t.Fatal(err)
	}

	h.fn.Partition()
	// The server must evict the unreachable peer via its idle timeout.
	waitFor(t, "partitioned peer eviction", 5*time.Second, func() bool {
		return h.b.Stats().Subscriptions == 0
	})
	h.fn.Heal()

	// After healing, the client redials and replays the subscription.
	waitFor(t, "post-partition resubscribe", 10*time.Second, func() bool {
		return h.b.Stats().Subscriptions == 1
	})
	h.publishUntilReceived(t, geometry.Point{5}, "healed")

	if err := h.rc.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	h.b.Close()
	checkGoroutines(t, base)
}

// TestChaosThrottledFloodHasBoundedDrops pushes a burst through a
// bandwidth-capped, chunk-mangled network and checks the accounting
// invariant: everything published is either delivered to the client or
// counted as dropped somewhere — no events silently vanish.
func TestChaosThrottledFloodHasBoundedDrops(t *testing.T) {
	h := startChaos(t,
		faultnet.Options{Seed: 11, MaxWriteChunk: 9, BandwidthBPS: 1 << 20},
		ServerOptions{WriteTimeout: 5 * time.Second},
	)
	defer func() {
		h.rc.Close()
		h.srv.Close()
		h.b.Close()
	}()

	if _, err := h.rc.Subscribe(geometry.NewRect(0, 10)); err != nil {
		t.Fatal(err)
	}
	const burst = 300
	for i := 0; i < burst; i++ {
		if n := h.publishDelivered(t, geometry.Point{5}, []byte{byte(i)}); n != 1 {
			t.Fatalf("publish %d delivered to %d", i, n)
		}
	}
	received := 0
	timeout := time.After(15 * time.Second)
	for received < burst {
		select {
		case <-h.rc.Events():
			received++
		case <-timeout:
			st := h.b.Stats()
			total := received + int(st.Dropped) + int(h.rc.Dropped())
			if total < burst {
				t.Fatalf("unaccounted loss: received %d + broker drops %d + client drops %d < %d",
					received, st.Dropped, h.rc.Dropped(), burst)
			}
			return // all loss accounted for by drop counters
		}
	}
	if st := h.b.Stats(); st.Delivered != burst {
		t.Errorf("broker delivered %d, want %d", st.Delivered, burst)
	}
}
