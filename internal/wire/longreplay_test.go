package wire

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/geometry"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// startDurableHistory runs a durable broker and server over a log that
// already holds n records, appended to the log directly (record i, from
// 1, has point i%10+1 and payload "ei"), and returns the server's
// address and a stop that closes server, broker and log (also run at
// cleanup).
func startDurableHistory(tb testing.TB, n int) (addr string, stop func()) {
	tb.Helper()
	log, err := wal.Open(tb.TempDir(), wal.Options{Sync: wal.SyncNever})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if _, err := log.Append(0, []float64{float64(i%10 + 1)}, []byte(fmt.Sprintf("e%d", i))); err != nil {
			tb.Fatalf("append %d: %v", i, err)
		}
	}
	b := broker.New(broker.Options{Log: log})
	s := NewServer(b)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go func() { _ = s.Serve(ln) }()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			s.Close()
			b.Close()
			log.Close()
		})
	}
	tb.Cleanup(stop)
	return ln.Addr().String(), stop
}

// TestClientReplayLongerThanBuffer: Replay collects a history five times
// the client's event buffer whole — every Seq once, in order — and drops
// nothing: while its request is outstanding the reader waits for room.
func TestClientReplayLongerThanBuffer(t *testing.T) {
	const history = 5000
	addr, _ := startDurableHistory(t, history)
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	evs, err := cli.Replay(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != history {
		t.Fatalf("replayed %d of %d records (dropped %d)", len(evs), history, cli.Dropped())
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has Seq %d, want %d", i, ev.Seq, i+1)
		}
	}
	if d := cli.Dropped(); d != 0 {
		t.Fatalf("dropped %d events", d)
	}
}

// TestResumeLongHistoryWithoutRedial: one SubscribeFrom(1) over 100 000
// durable records delivers each exactly once, in Seq order, on the
// connection it was made on: no redial is attempted, and the client's
// recorder holds nothing but the frames' client_recv records.
func TestResumeLongHistoryWithoutRedial(t *testing.T) {
	const history = 100_000
	addr, _ := startDurableHistory(t, history)
	rec := telemetry.NewRecorder(512)
	reg := telemetry.NewRegistry()
	rc, err := DialReconnecting(addr, ReconnectOptions{InitialBackoff: 10 * time.Millisecond, Metrics: reg, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := rc.SubscribeFrom(1, geometry.NewRect(0, 1000)); err != nil {
		t.Fatal(err)
	}
	timeout := time.After(60 * time.Second)
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
	if rs := rec.SnapshotFilter(0, telemetry.KindReconnect, 0); len(rs) != 0 {
		t.Fatalf("reconnect records %+v, want none", rs)
	}
	// The last frame's record follows its event onto the channel.
	waitFor(t, "a client_recv record per frame", 5*time.Second, func() bool { return rec.Written() >= history })
	if n := rec.Written(); n != history {
		t.Fatalf("recorder holds %d records, want the %d frames' client_recv records alone", n, history)
	}
	if d := rc.Dropped(); d != 0 {
		t.Fatalf("dropped %d events", d)
	}
}

// TestCloseDuringPacedReplay: Close returns within 2 s, and leaves no
// goroutine behind, while a replay streams and the connection's reader
// waits for room in a full event buffer — for a Client in Replay and for
// a ReconnectingClient collecting its SubscribeFrom.
func TestCloseDuringPacedReplay(t *testing.T) {
	const history = 50_000
	for _, tc := range []struct {
		name  string
		start func(t *testing.T, addr string) (conn *Client, call func() error, close func() error)
	}{
		{"client", func(t *testing.T, addr string) (*Client, func() error, func() error) {
			cli, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			return cli, func() error { _, err := cli.Replay(1); return err }, cli.Close
		}},
		{"reconnecting", func(t *testing.T, addr string) (*Client, func() error, func() error) {
			rc, err := DialReconnecting(addr, ReconnectOptions{InitialBackoff: 10 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			return rc.cur.Load(), func() error {
				_, err := rc.SubscribeFrom(1, geometry.NewRect(0, 1000))
				return err
			}, rc.Close
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// At one CPU the collector runs the instant the reader blocks,
			// so only a second processor lets this goroutine see the full
			// buffer the reader waits on.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
			base := runtime.NumGoroutine()
			addr, stop := startDurableHistory(t, history)
			conn, call, closeClient := tc.start(t, addr)
			returned := make(chan error, 1)
			go func() { returned <- call() }()

			deadline := time.Now().Add(30 * time.Second)
			for len(conn.Events()) < cap(conn.Events()) {
				select {
				case err := <-returned:
					t.Fatalf("the replay ended (%v) before the reader waited on a full buffer", err)
				default:
				}
				if time.Now().After(deadline) {
					t.Fatal("the event buffer never filled during the replay")
				}
				runtime.Gosched()
			}
			closed := make(chan error, 1)
			go func() { closed <- closeClient() }()
			select {
			case <-closed:
			case <-time.After(2 * time.Second):
				t.Fatal("Close blocked for 2 s during a paced replay")
			}
			select {
			case <-returned:
			case <-time.After(2 * time.Second):
				t.Fatal("the replaying call did not return after Close")
			}
			stop()
			checkGoroutines(t, base)
		})
	}
}
