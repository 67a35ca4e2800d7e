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
)

// TestClientConcurrentRequests has eight goroutines share one Client
// and interleave subscribes, publishes, unsubscribes and pings, so that
// many requests are in flight on the connection at once. Each goroutine
// subscribes and publishes only inside its own interval, so every reply
// can be checked: a publish reaches exactly the goroutine's live
// subscriptions, every subscription id is new, every ping is answered.
func TestClientConcurrentRequests(t *testing.T) {
	// Block keeps every delivery, so a publish's count is exact.
	b := broker.New(broker.Options{Overflow: broker.Block, BlockTimeout: 10 * time.Second})
	s := NewServer(b)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve(ln) }()
	t.Cleanup(func() {
		s.Close()
		b.Close()
	})
	cli, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range cli.Events() {
		}
	}()

	const workers, rounds = 8, 60
	var mu sync.Mutex
	seen := map[int]bool{}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lo := float64(10 * g)
			region, p := geometry.NewRect(lo, lo+10), geometry.Point{lo + 5}
			var live []int
			for i := 0; i < rounds; i++ {
				if i%3 != 2 || len(live) == 0 {
					id, err := cli.Subscribe(region)
					if err != nil {
						errs <- fmt.Errorf("worker %d: subscribe: %w", g, err)
						return
					}
					mu.Lock()
					dup := seen[id]
					seen[id] = true
					mu.Unlock()
					if dup {
						errs <- fmt.Errorf("worker %d: subscription id %d handed out twice", g, id)
						return
					}
					live = append(live, id)
				} else {
					if err := cli.Unsubscribe(live[0]); err != nil {
						errs <- fmt.Errorf("worker %d: unsubscribe %d: %w", g, live[0], err)
						return
					}
					live = live[1:]
				}
				if n, err := cli.Publish(p, []byte{byte(g)}); err != nil || n != len(live) {
					errs <- fmt.Errorf("worker %d round %d: publish reached %d, %v; want its %d subscriptions", g, i, n, err, len(live))
					return
				}
				if err := cli.Ping(); err != nil {
					errs <- fmt.Errorf("worker %d: ping: %w", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if d := cli.Dropped(); d != 0 {
		t.Errorf("client dropped %d events", d)
	}
	cli.Close()
	<-drained
}

// TestClientFailsPendingRequestsOnClose: a peer that reads requests but
// never replies leaves them all in flight. Every one of them fails once
// the peer closes the connection, or once the client is closed, and the
// client leaves no goroutine behind.
func TestClientFailsPendingRequestsOnClose(t *testing.T) {
	for _, peerCloses := range []bool{true, false} {
		t.Run(fmt.Sprintf("peerCloses=%v", peerCloses), func(t *testing.T) {
			base := runtime.NumGoroutine()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			accepted := make(chan net.Conn, 1)
			read := make(chan struct{}, 64)
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				accepted <- conn
				for {
					if _, err := ReadMessage(conn); err != nil {
						return
					}
					read <- struct{}{}
				}
			}()
			cli, err := Dial(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			peer := <-accepted
			defer peer.Close()

			const inFlight = 8
			failed := make(chan error, inFlight)
			for i := 0; i < inFlight; i++ {
				go func(i int) {
					var err error
					switch i % 3 {
					case 0:
						_, err = cli.Publish(geometry.Point{1}, []byte("x"))
					case 1:
						_, err = cli.Subscribe(geometry.NewRect(0, 1))
					default:
						err = cli.Ping()
					}
					failed <- err
				}(i)
			}
			for i := 0; i < inFlight; i++ {
				select {
				case <-read:
				case <-time.After(5 * time.Second):
					t.Fatalf("the peer read %d of %d requests", i, inFlight)
				}
			}
			if peerCloses {
				_ = peer.Close()
			} else {
				_ = cli.Close()
			}
			for i := 0; i < inFlight; i++ {
				select {
				case err := <-failed:
					if err == nil {
						t.Error("a request with no reply succeeded")
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("%d of %d requests still pending after the connection ended", inFlight-i, inFlight)
				}
			}
			if err := cli.Ping(); err == nil {
				t.Error("a request after the connection ended succeeded")
			}
			_ = cli.Close()
			_ = peer.Close()
			_ = ln.Close()
			checkGoroutines(t, base)
		})
	}
}

// TestClientRoundTripAllocations: a publish round trip, client and
// server in one process, costs four allocations — the client's request
// message, the server's decoded point and payload and its reply. The
// request's frame, its waiter and the reply's copy allocate nothing (a
// frame buffer a request and a reply a response made it six).
func TestClientRoundTripAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, addr := startServer(t)
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	p, payload := geometry.Point{5}, []byte("x")
	publish := func() {
		if _, err := cli.Publish(p, payload); err != nil {
			t.Fatal(err)
		}
	}
	publish()
	if allocs := testing.AllocsPerRun(500, publish); allocs > 4 {
		t.Errorf("%g allocs per publish round trip, want at most 4", allocs)
	}
}
