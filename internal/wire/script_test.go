package wire

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/faultnet"
	"repro/internal/geometry"
	"repro/internal/wal"
)

// scriptSub is the reference model of one subscription of the scripted
// connection: what it asked for and when it ended. It is entitled to
// every publication at or after Seq from whose point its rectangle
// contains.
type scriptSub struct {
	rect    geometry.Rect
	from    uint64
	resumed bool // from was asked for (from_offset), while publishers ran
	unsubAt int  // index, in the peer's frame log, of the reply to its unsubscribe; -1 while live
	got     map[uint64]bool
	lastOf  map[uint64]uint64 // per publisher: the counter it saw last
}

// scriptPeer is the connection under test, seen from the outside: a raw
// socket whose every frame is logged in arrival order, replies also
// handed to whoever sent the request.
type scriptPeer struct {
	conn    net.Conn
	mu      sync.Mutex
	frames  []*Message
	replies chan int // index in frames
	done    chan error
}

func (p *scriptPeer) readLoop() {
	for {
		m, err := ReadMessage(p.conn)
		if err != nil {
			p.done <- err
			return
		}
		p.mu.Lock()
		p.frames = append(p.frames, m)
		i := len(p.frames) - 1
		p.mu.Unlock()
		if m.Type == TypeOK || m.Type == TypeError {
			p.replies <- i
		}
	}
}

// request sends req and returns its reply and the reply's place in the
// frame log.
func (p *scriptPeer) request(req *Message) (*Message, int, error) {
	if err := WriteMessage(p.conn, req); err != nil {
		return nil, 0, err
	}
	select {
	case i := <-p.replies:
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.frames[i], i, nil
	case err := <-p.done:
		return nil, 0, fmt.Errorf("connection ended waiting for the reply to %s: %w", req.Type, err)
	case <-time.After(20 * time.Second):
		return nil, 0, fmt.Errorf("no reply to %s", req.Type)
	}
}

// runConnectionScript drives one seeded script against one connection of
// a durable server behind faultnet and checks what the peer received
// against the reference model. The script: rounds of quiet-time
// operations (subscribe live, unsubscribe) followed by a burst from
// three concurrent publishers — two in-process, one over the wire —
// during which a subscription may resume from a past offset, one may be
// unsubscribed and the peer may stall; at the end a graceful Shutdown.
//
// Checked, per subscription: no event outside its rectangle or below its
// start offset; no Seq twice, across the replay→live boundary included;
// each publisher's events in that publisher's order (concurrent
// publishers take their Seq before they deliver, so Seq order across
// publishers is not promised, with channels or without); every event
// what the log says was published under that Seq; nothing after the
// reply to its unsubscribe; and, for those that lived to the drain,
// entitled − received = the broker's drop count for it, exactly — so
// whatever was queued was delivered by the drain. (A resumed one may
// count more drops than it misses: a publication that lands between its
// registration and the replay's end offset is owed to it twice, by the
// replay and live, and the live copy may overflow.)
func runConnectionScript(t *testing.T, seed int64) (deliveries, drops, resumes int) {
	rng := rand.New(rand.NewSource(seed))
	log, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	b := broker.New(broker.Options{Log: log})
	defer b.Close()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fn := faultnet.New(faultnet.Options{})
	s := NewServer(b)
	go func() { _ = s.Serve(fn.Listen(inner)) }()
	defer s.Close()

	conn, err := net.Dial("tcp", inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	peer := &scriptPeer{conn: conn, replies: make(chan int, 1), done: make(chan error, 1)}
	go peer.readLoop()
	wirePub, err := Dial(inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer wirePub.Close()

	grouping := rng.Intn(2) == 0
	subs := map[int]*scriptSub{}
	var live []int
	subscribe := func(from uint64) {
		lo := float64(rng.Intn(80))
		rect := geometry.NewRect(lo, lo+5+float64(rng.Intn(40)))
		req := &Message{Type: TypeSubscribe, Rects: []Rect{RectToWire(rect)}, Group: grouping,
			Buffer: 1 + rng.Intn(48), FromOffset: from}
		start := from
		if from == 0 {
			start = b.Head() + 1 // quiet time: everything published from now on
		}
		reply, _, err := peer.request(req)
		if err != nil || reply.Type != TypeOK {
			t.Fatalf("subscribe: %+v, %v", reply, err)
		}
		subs[reply.SubID] = &scriptSub{rect: rect, from: start, resumed: from > 0, unsubAt: -1,
			got: map[uint64]bool{}, lastOf: map[uint64]uint64{}}
		live = append(live, reply.SubID)
	}
	unsubscribe := func() {
		if len(live) == 0 {
			return
		}
		k := rng.Intn(len(live))
		id := live[k]
		live = append(live[:k], live[k+1:]...)
		reply, at, err := peer.request(&Message{Type: TypeUnsubscribe, SubID: id})
		if err != nil || reply.Type != TypeOK {
			t.Fatalf("unsubscribe %d: %+v, %v", id, reply, err)
		}
		subs[id].unsubAt = at
	}

	counters := [3]uint64{}
	for round, rounds := 0, 4+rng.Intn(4); round < rounds; round++ {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			if rng.Intn(4) == 0 {
				unsubscribe()
			} else {
				subscribe(0)
			}
		}
		var wg sync.WaitGroup
		for pub := range counters {
			n, pubSeed := 10+rng.Intn(50), rng.Int63()
			wg.Add(1)
			go func() {
				defer wg.Done()
				prng := rand.New(rand.NewSource(pubSeed))
				for i := 0; i < n; i++ {
					counters[pub]++
					payload := make([]byte, 16)
					binary.LittleEndian.PutUint64(payload, uint64(pub))
					binary.LittleEndian.PutUint64(payload[8:], counters[pub])
					p := geometry.Point{prng.Float64() * 100}
					var err error
					if pub == 0 {
						_, err = wirePub.Publish(p, payload)
					} else {
						_, err = b.Publish(p, payload)
					}
					if err != nil {
						t.Errorf("publisher %d: %v", pub, err)
						return
					}
				}
			}()
		}
		// While they publish: a resume from somewhere in the log, an
		// unsubscribe under fire, a peer that stops taking bytes.
		if head := b.Head(); head > 0 && rng.Intn(2) == 0 {
			subscribe(1 + uint64(rng.Int63n(int64(head))))
		}
		if rng.Intn(3) == 0 {
			unsubscribe()
		}
		if rng.Intn(2) == 0 {
			fn.Partition()
			time.Sleep(time.Duration(1+rng.Intn(3)) * time.Millisecond)
			fn.Heal()
		}
		wg.Wait()
	}

	// Drops happen at publish time, and publishing is over.
	dropped := map[int]uint64{}
	for _, sl := range b.LagReport().Subs {
		dropped[sl.ID] = sl.Dropped
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if err := <-peer.done; err != io.EOF {
		t.Fatalf("the peer's stream ended with %v, want a clean EOF after the drain", err)
	}

	// The log is what was published.
	published := map[uint64]wal.Record{}
	r, err := log.ReadFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rec.Point, rec.Payload = append(geometry.Point(nil), rec.Point...), append([]byte(nil), rec.Payload...)
		published[rec.Offset] = rec
	}

	for i, m := range peer.frames {
		if m.Type != TypeEvent {
			continue
		}
		ids := m.SubIDs
		if grouping != (len(ids) > 0) {
			t.Fatalf("frame %d: a peer with group=%v got sub_ids %v", i, grouping, m.SubIDs)
		}
		if !grouping {
			ids = []int{m.SubID}
		}
		rec, ok := published[m.Seq]
		if !ok || rec.Point[0] != m.Point[0] || string(rec.Payload) != string(m.Payload) {
			t.Fatalf("frame %d carries Seq %d as %v %x, the log has %v %x", i, m.Seq, m.Point, m.Payload, rec.Point, rec.Payload)
		}
		pub, counter := binary.LittleEndian.Uint64(m.Payload), binary.LittleEndian.Uint64(m.Payload[8:])
		for _, id := range ids {
			sub := subs[id]
			switch {
			case sub == nil:
				t.Fatalf("frame %d names subscription %d, which this connection never had", i, id)
			case sub.unsubAt >= 0 && i > sub.unsubAt:
				t.Fatalf("frame %d (Seq %d) names subscription %d after the reply to its unsubscribe (frame %d)", i, m.Seq, id, sub.unsubAt)
			case !sub.rect.Contains(geometry.Point(m.Point)) || m.Seq < sub.from:
				t.Fatalf("frame %d: subscription %d (%v from %d) got Seq %d at %v", i, id, sub.rect, sub.from, m.Seq, m.Point)
			case sub.got[m.Seq]:
				t.Fatalf("frame %d: subscription %d got Seq %d twice", i, id, m.Seq)
			case counter <= sub.lastOf[pub]:
				t.Fatalf("frame %d: subscription %d got publisher %d's event %d after its %d", i, id, pub, counter, sub.lastOf[pub])
			}
			sub.got[m.Seq] = true
			sub.lastOf[pub] = counter
			deliveries++
		}
	}
	for _, sub := range subs {
		if sub.resumed {
			resumes++
		}
	}
	for _, id := range live {
		sub := subs[id]
		drops += int(dropped[id])
		entitled := 0
		for seq, rec := range published {
			if seq >= sub.from && sub.rect.Contains(rec.Point) {
				entitled++
			}
		}
		if missing, counted := entitled-len(sub.got), int(dropped[id]); missing > counted || (missing < counted && !sub.resumed) {
			t.Fatalf("subscription %d (%v from %d): entitled to %d, received %d, the broker counted %d dropped: %d unaccounted",
				id, sub.rect, sub.from, entitled, len(sub.got), dropped[id], missing-int(dropped[id]))
		}
	}
	return deliveries, drops, resumes
}

// TestConnectionScript runs the seeded script over many seeds; a failing
// seed names itself and can be rerun alone with
// -run 'TestConnectionScript/seed=N$'.
func TestConnectionScript(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 25
	}
	var deliveries, drops, resumes int
	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			d, x, r := runConnectionScript(t, int64(seed))
			deliveries, drops, resumes = deliveries+d, drops+x, resumes+r
		})
	}
	// A script that never overflows or never resumes checks half of this.
	if drops == 0 || resumes == 0 {
		t.Errorf("%d seeds saw %d drops and %d resumed subscriptions: the scripts no longer reach the overflow policy or the replay boundary", seeds, drops, resumes)
	}
	t.Logf("%d seeds: %d deliveries, %d counted drops, %d resumed subscriptions", seeds, deliveries, drops, resumes)
}
