package broker

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/geometry"
	"repro/internal/telemetry"
)

// saturate publishes n matching events with nobody consuming.
func saturate(t *testing.T, b *Broker, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := b.Publish(geometry.Point{5}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOverflowDropNewest(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	s, err := b.SubscribeWith(SubscribeOptions{Buffer: 2}, geometry.NewRect(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	saturate(t, b, 5)
	// The two oldest events survive; the three newest were dropped.
	for want := 0; want < 2; want++ {
		ev := <-s.Events()
		if int(ev.Payload[0]) != want {
			t.Fatalf("event %d payload = %d", want, ev.Payload[0])
		}
	}
	st := s.Stats()
	if st.Dropped != 3 || st.LastDrop.IsZero() {
		t.Errorf("sub stats = %+v", st)
	}
	if bs := b.Stats(); bs.Dropped != 3 || bs.LastDrop.IsZero() {
		t.Errorf("broker stats = %+v", bs)
	}
}

func TestOverflowDropOldest(t *testing.T) {
	b := New(Options{Overflow: DropOldest})
	defer b.Close()
	s, err := b.SubscribeWith(SubscribeOptions{Buffer: 2}, geometry.NewRect(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	saturate(t, b, 5)
	// The two newest events survive; the three oldest were evicted.
	for want := 3; want < 5; want++ {
		ev := <-s.Events()
		if int(ev.Payload[0]) != want {
			t.Fatalf("expected payload %d, got %d", want, ev.Payload[0])
		}
	}
	if st := s.Stats(); st.Dropped != 3 || st.HighWater != 2 {
		t.Errorf("sub stats = %+v", st)
	}
}

func TestOverflowBlockWaitsForConsumer(t *testing.T) {
	b := New(Options{Overflow: Block, BlockTimeout: 5 * time.Second})
	defer b.Close()
	s, err := b.SubscribeWith(SubscribeOptions{Buffer: 1}, geometry.NewRect(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	// Fill the buffer, then drain it from a delayed consumer while the
	// second publish blocks.
	if _, err := b.Publish(geometry.Point{5}, nil); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		<-s.ch
	}()
	start := time.Now()
	n, err := b.Publish(geometry.Point{5}, nil)
	if err != nil || n != 1 {
		t.Fatalf("blocked publish: n=%d err=%v", n, err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Error("publish did not block for the consumer")
	}
	if s.Dropped() != 0 {
		t.Errorf("dropped = %d, want 0", s.Dropped())
	}
}

func TestOverflowBlockTimesOut(t *testing.T) {
	b := New(Options{Overflow: Block, BlockTimeout: 20 * time.Millisecond})
	defer b.Close()
	_, err := b.SubscribeWith(SubscribeOptions{Buffer: 1}, geometry.NewRect(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	saturate(t, b, 1) // fills the buffer
	start := time.Now()
	n, err := b.Publish(geometry.Point{5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("delivered %d, want timeout drop", n)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Errorf("dropped after %v, before the bounded wait elapsed", elapsed)
	}
	if st := b.Stats(); st.Dropped != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestOverflowCancelSlowEvicts(t *testing.T) {
	b := New(Options{Overflow: CancelSlow})
	defer b.Close()
	slow, err := b.SubscribeWith(SubscribeOptions{Buffer: 1}, geometry.NewRect(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := b.SubscribeWith(SubscribeOptions{Buffer: 64}, geometry.NewRect(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	saturate(t, b, 3) // overflows slow's buffer on the second publish

	// Eviction is asynchronous; wait for the subscription to disappear.
	deadline := time.Now().Add(2 * time.Second)
	for b.Stats().Subscriptions != 1 {
		if time.Now().After(deadline) {
			t.Fatal("slow subscriber never evicted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := b.Stats(); st.Evicted != 1 {
		t.Errorf("stats = %+v", st)
	}
	if !slow.Stats().Evicted {
		t.Error("evicted flag not set on subscription")
	}

	// The healthy subscriber still receives everything, before and after.
	if _, err := b.Publish(geometry.Point{5}, []byte{99}); err != nil {
		t.Fatal(err)
	}
	got := 0
	for ev := range healthy.Events() {
		got++
		if ev.Payload[0] == 99 {
			break
		}
	}
	if got != 4 {
		t.Errorf("healthy subscriber saw %d events, want 4", got)
	}
	// slow's channel must be closed (drain any buffered remainder).
	for {
		if _, open := <-slow.Events(); !open {
			break
		}
	}
}

func TestBrokerDefaultOverflowPolicyInherited(t *testing.T) {
	b := New(Options{Overflow: DropOldest, DefaultBuffer: 2})
	defer b.Close()
	s, err := b.Subscribe(geometry.NewRect(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	if s.Policy() != DropOldest {
		t.Fatalf("policy = %v, want drop-oldest", s.Policy())
	}
	saturate(t, b, 4)
	if ev := <-s.Events(); int(ev.Payload[0]) != 2 {
		t.Errorf("oldest surviving payload = %d, want 2", ev.Payload[0])
	}
}

func TestSubscribeWithValidation(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	if _, err := b.SubscribeWith(SubscribeOptions{Buffer: -1}, geometry.NewRect(0, 1)); err == nil {
		t.Error("negative buffer accepted")
	}
}

// A policy out of range used to reach the publish path, which indexed
// the drop counters by it and panicked there (or, without metrics, acted
// as DropNewest). New refuses it, naming the value and the valid ones.
func TestNewRejectsUnknownOverflowPolicy(t *testing.T) {
	for _, p := range []OverflowPolicy{-1, 4, 7} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				want := fmt.Sprintf("unknown overflow policy %d", int(p))
				if !strings.Contains(msg, want) || !strings.Contains(msg, policyNames) {
					t.Errorf("New with Overflow %d panicked with %q, want it to name %d and %s", int(p), msg, int(p), policyNames)
				}
			}()
			b := New(Options{Overflow: p, Metrics: telemetry.NewRegistry(), DefaultBuffer: 1})
			defer b.Close()
			if _, err := b.Subscribe(geometry.NewRect(0, 10)); err != nil {
				t.Fatal(err)
			}
			saturate(t, b, 2)
		}()
	}
}

func TestHighWaterMark(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	s, err := b.SubscribeWith(SubscribeOptions{Buffer: 8}, geometry.NewRect(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	saturate(t, b, 5)
	if st := s.Stats(); st.HighWater != 5 || st.Buffered != 5 || st.Capacity != 8 {
		t.Errorf("sub stats = %+v", st)
	}
	if bs := b.Stats(); bs.QueueHighWater != 5 {
		t.Errorf("broker high water = %d, want 5", bs.QueueHighWater)
	}
	// Draining does not lower the high-water mark.
	for i := 0; i < 5; i++ {
		<-s.Events()
	}
	if st := s.Stats(); st.HighWater != 5 || st.Buffered != 0 {
		t.Errorf("sub stats after drain = %+v", st)
	}
}

func TestPublishPayloadNotAliased(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	s, err := b.Subscribe(geometry.NewRect(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte("original")
	if _, err := b.Publish(geometry.Point{5}, buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "CLOBBER!") // caller reuses its buffer immediately
	if ev := <-s.Events(); string(ev.Payload) != "original" {
		t.Errorf("payload = %q, want %q (broker aliased the caller's buffer)", ev.Payload, "original")
	}
}

func TestParseOverflowPolicy(t *testing.T) {
	for _, p := range []OverflowPolicy{DropNewest, DropOldest, Block, CancelSlow} {
		got, err := ParseOverflowPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("round trip %v: got %v err %v", p, got, err)
		}
	}
	if _, err := ParseOverflowPolicy("bogus"); err == nil {
		t.Error("bogus policy parsed")
	}
}

// The four overflow policies on both kinds of queue. a and b (two slots
// each) match the publications at 5, c (one slot) those at 50. On a sink
// the three share one queue of five deliveries and a publication at 5 is
// one element naming a and b; on channels each subscription is its own
// queue and a publication at 5 is two elements of one. Either way the
// third publication at 5 is refused: it finds one slot free for an
// element of two, or no slot at all. Whatever the policy then does, every
// matched publication ends up consumed or counted dropped, per
// subscription.
func TestOverflowPolicies(t *testing.T) {
	const blockTimeout = 40 * time.Millisecond
	for _, policy := range []OverflowPolicy{DropNewest, DropOldest, Block, CancelSlow} {
		for _, onSink := range []bool{false, true} {
			kind := map[bool]string{false: "channel", true: "sink"}[onSink]
			t.Run(policy.String()+"/"+kind, func(t *testing.T) {
				testOverflowPolicy(t, policy, onSink, blockTimeout)
			})
		}
	}
}

func testOverflowPolicy(t *testing.T, policy OverflowPolicy, onSink bool, blockTimeout time.Duration) {
	rec := telemetry.NewRecorder(1024)
	br := New(Options{Overflow: policy, BlockTimeout: blockTimeout, Recorder: rec})
	defer br.Close()
	var k *Sink
	if onSink {
		k = br.NewSink()
	}
	sub := func(buffer int, lo, hi float64) *Subscription {
		t.Helper()
		s, err := br.SubscribeWith(SubscribeOptions{Buffer: buffer, Sink: k}, geometry.NewRect(lo, hi))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b, c := sub(2, 0, 10), sub(2, 0, 10), sub(1, 40, 60)
	// elements is how many queue elements a publication at 5 becomes,
	// per how many ids each of them names.
	elements, per := 2, 1
	if onSink {
		elements, per = 1, 2
	}
	matched, consumed := map[int]int{}, map[int]int{}
	publish := func(x float64, trace uint64, want int) {
		t.Helper()
		n, err := br.PublishTraced(geometry.Point{x}, nil, trace)
		if err != nil || n != want {
			t.Fatalf("publish at %v delivered to %d (err %v), want %d", x, n, err, want)
		}
		if x < 10 {
			matched[a.ID()]++
			matched[b.ID()]++
		} else {
			matched[c.ID()]++
		}
	}
	// consume takes what the queues hold: up to max of the sink's
	// elements or of each channel's events, all of them when max < 0.
	consume := func(max int) {
		if onSink {
			var d Delivery
			for n := 0; n != max && k.Next(&d); n++ {
				for _, id := range d.IDs {
					consumed[id]++
				}
			}
			return
		}
		for _, s := range []*Subscription{a, b, c} {
		take:
			for n := 0; n != max; n++ {
				select {
				case _, ok := <-s.Events():
					if !ok {
						break take
					}
					consumed[s.ID()]++
				default:
					break take
				}
			}
		}
	}

	t1, t3 := telemetry.NewTraceID(), telemetry.NewTraceID()
	publish(5, t1, 2)
	publish(5, 0, 2)
	want := SubStats{Buffered: 2, Capacity: 2, HighWater: 2}
	if onSink {
		want = SubStats{Buffered: 4, Capacity: 5, HighWater: 4}
	}
	if st := a.Stats(); st.Buffered != want.Buffered || st.Capacity != want.Capacity || st.HighWater != want.HighWater {
		t.Fatalf("a reports %+v, want %d of %d buffered, high water %d", st, want.Buffered, want.Capacity, want.HighWater)
	}
	if (a.Events() == nil) != onSink {
		t.Fatalf("a's channel is %v; a sink subscription has none, a channel one has one", a.Events())
	}

	start := time.Now()
	switch policy {
	case DropNewest:
		publish(5, t3, 0)
	case DropOldest:
		publish(5, t3, 2)
	case Block:
		publish(5, t3, 0) // nobody consumes: each element's wait runs out
		if waited := time.Since(start); waited < blockTimeout || waited > time.Duration(elements)*blockTimeout+2*time.Second {
			t.Fatalf("blocked for %v, timeout is %v per element", waited, blockTimeout)
		}
		// With a consumer making room in time every element gets in.
		popped := make(chan struct{})
		go func() {
			defer close(popped)
			time.Sleep(blockTimeout / 8)
			consume(1)
		}()
		start = time.Now()
		publish(5, 0, 2)
		if waited := time.Since(start); waited >= blockTimeout {
			t.Fatalf("blocked for %v although room was made after %v", waited, blockTimeout/8)
		}
		<-popped
	case CancelSlow:
		publish(5, t3, 0)
		if !a.Stats().Evicted || !b.Stats().Evicted || c.Stats().Evicted {
			t.Fatal("CancelSlow must evict exactly the subscriptions the refused elements named")
		}
		deadline := time.Now().Add(5 * time.Second)
		for br.Stats().Subscriptions != 1 {
			if time.Now().After(deadline) {
				t.Fatalf("%d subscriptions left, want only c", br.Stats().Subscriptions)
			}
			time.Sleep(time.Millisecond)
		}
		if got := br.Stats().Evicted; got != 2 {
			t.Fatalf("evicted = %d, want 2", got)
		}
		// On a sink their shares went back with them.
		if st := c.Stats(); onSink && (st.Capacity != 1 || st.Buffered != 4) {
			t.Fatalf("after the evictions the sink reports %+v, want capacity 1 with 4 still queued", st)
		}
	}

	// The loss is booked where it happened: on the refused publication's
	// trace, or — DropOldest — on the evicted one's. A delivered element
	// is one deliver record, however many ids it names.
	wantDrops := map[uint64]int{t1: 0, t3: 2}
	wantDelivers := map[uint64]int{t1: elements, t3: 0}
	if policy == DropOldest {
		wantDrops = map[uint64]int{t1: 2, t3: 0}
		wantDelivers[t3] = elements
	}
	for trace, want := range wantDrops {
		drops := rec.SnapshotFilter(trace, telemetry.KindDrop, 0)
		if len(drops) != want {
			t.Fatalf("trace %x carries %d drop records, want %d: %+v", trace, len(drops), want, drops)
		}
		for _, r := range drops {
			if OverflowPolicy(r.Args[1]) != policy || (int(r.Args[0]) != a.ID() && int(r.Args[0]) != b.ID()) {
				t.Fatalf("drop record %+v, want policy %v on a or b", r, policy)
			}
		}
		delivers := rec.SnapshotFilter(trace, telemetry.KindDeliver, 0)
		if len(delivers) != wantDelivers[trace] {
			t.Fatalf("trace %x carries %d deliver records, want %d", trace, len(delivers), wantDelivers[trace])
		}
		for _, r := range delivers {
			if int(r.Args[2]) != per || (int(r.Args[0]) != a.ID() && int(r.Args[0]) != b.ID()) {
				t.Fatalf("deliver record %+v, want subs=%d naming a or b", r, per)
			}
		}
	}
	if a.Dropped() != 1 || b.Dropped() != 1 || c.Dropped() != 0 {
		t.Fatalf("dropped a=%d b=%d c=%d, want 1/1/0", a.Dropped(), b.Dropped(), c.Dropped())
	}

	// c's element of one still fits: in its own channel, or beside four
	// deliveries in the sink (not under CancelSlow, where the sink's
	// capacity left with a and b).
	if !onSink || policy != CancelSlow {
		publish(50, 0, 1)
	}
	consume(-1)
	for _, s := range []*Subscription{a, b, c} {
		if lost := matched[s.ID()] - consumed[s.ID()] - int(s.Dropped()); lost != 0 {
			t.Errorf("subscription %d: matched %d, consumed %d, dropped %d: %d unaccounted",
				s.ID(), matched[s.ID()], consumed[s.ID()], s.Dropped(), lost)
		}
	}
	if st := br.Stats(); int(st.Dropped) != 2 {
		t.Errorf("broker dropped = %d, want 2", st.Dropped)
	}
}

// A publisher waiting under Block holds up nothing but its own queue:
// closing that queue — Cancel on a channel, Sink.Close on a sink — ends
// the wait at once, and neither Cancel nor an unrelated Subscribe waits
// for the publisher's timeout meanwhile. Nothing is counted dropped: the
// publication was matched by a subscription that is gone.
func TestBlockWaitEndsWhenItsQueueCloses(t *testing.T) {
	const blockTimeout = 5 * time.Second
	const prompt = time.Second // far below blockTimeout, far above a scheduling delay
	for _, onSink := range []bool{false, true} {
		t.Run(map[bool]string{false: "channel", true: "sink"}[onSink], func(t *testing.T) {
			br := New(Options{Overflow: Block, BlockTimeout: blockTimeout})
			defer br.Close()
			var k *Sink
			if onSink {
				k = br.NewSink()
			}
			s, err := br.SubscribeWith(SubscribeOptions{Buffer: 1, Sink: k}, geometry.NewRect(0, 10))
			if err != nil {
				t.Fatal(err)
			}
			saturate(t, br, 1)
			published := make(chan int)
			go func() {
				n, err := br.Publish(geometry.Point{5}, nil)
				if err != nil {
					t.Error(err)
				}
				published <- n
			}()
			// The publisher is in the queue once it holds the channel's
			// sendMu or has asked the sink for a wake-up.
			for inQueue := false; !inQueue; time.Sleep(time.Millisecond) {
				if onSink {
					k.mu.Lock()
					inQueue = k.waiting
					k.mu.Unlock()
				} else if inQueue = !s.sendMu.TryLock(); !inQueue {
					s.sendMu.Unlock()
				}
			}

			start := time.Now()
			s.Cancel()
			if took := time.Since(start); took > prompt {
				t.Fatalf("Cancel took %v while a publisher waited under Block", took)
			}
			start = time.Now()
			if _, err := br.Subscribe(geometry.NewRect(20, 30)); err != nil {
				t.Fatal(err)
			}
			if took := time.Since(start); took > prompt {
				t.Fatalf("an unrelated Subscribe took %v while a publisher waited under Block", took)
			}
			if onSink {
				k.Close()
			}
			select {
			case n := <-published:
				if n != 0 {
					t.Fatalf("the publication reached %d subscriptions of a closed queue", n)
				}
			case <-time.After(prompt):
				t.Fatal("the Block wait outlived its queue")
			}
			if d := s.Dropped(); d != 0 {
				t.Fatalf("dropped = %d on a closed queue, want 0", d)
			}
		})
	}
}
