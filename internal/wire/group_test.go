package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/geometry"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// groupedFrame encodes a publication's grouped frame — ev for every id
// of ids — behind prefix, and checks it against the contract: the body
// is what json.Marshal yields for the message with ids in SubIDs, and
// decoding it gives, id by id, exactly the event each
// single-subscription frame carries.
func groupedFrame(t *testing.T, prefix []byte, ev *Message, ids []int) []byte {
	t.Helper()
	all := *ev
	all.SubID, all.SubIDs = 0, ids
	start := len(prefix)
	buf, err := appendFrame(bytes.Clone(prefix), &all)
	if err != nil {
		t.Fatalf("%d-id frame: %v", len(ids), err)
	}
	want, err := json.Marshal(&all)
	if err != nil {
		t.Fatal(err)
	}
	frame := buf[start:]
	if !bytes.Equal(frame[4:], want) {
		t.Fatalf("encoded frame differs from json.Marshal:\n got %s\nwant %s", frame[4:], want)
	}
	if n := int(binary.BigEndian.Uint32(frame)); n != len(want) {
		t.Fatalf("length prefix says %d bytes, body has %d", n, len(want))
	}
	if !bytes.Equal(buf[:start], prefix) {
		t.Fatal("encoding touched the bytes before the frame")
	}
	if !checkDecode(t, frame[4:]) {
		t.Fatalf("fast decoder declined the grouped frame %s", frame[4:])
	}
	var got Message
	if err := decodeBody(frame[4:], &got); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.SubIDs, ids) || got.SubID != 0 {
		t.Fatalf("decoded ids %v (sub_id %d), want %v", got.SubIDs, got.SubID, ids)
	}
	for _, id := range ids {
		single := *ev
		single.SubID, single.SubIDs = id, nil
		sf, err := appendFrame(nil, &single)
		if err != nil {
			t.Fatal(err)
		}
		var want Message
		if err := decodeBody(sf[4:], &want); err != nil {
			t.Fatal(err)
		}
		each := got
		each.SubID, each.SubIDs = id, nil
		if !reflect.DeepEqual(each, want) {
			t.Fatalf("id %d of the grouped frame decodes to %+v, its own frame to %+v", id, each, want)
		}
	}
	return buf
}

func TestGroupedFrameEqualsSingleFrames(t *testing.T) {
	events := []*Message{
		{Type: TypeEvent, Seq: 1},
		{Type: TypeEvent, Point: []float64{5}, Seq: 2, TraceID: 3},
		{Type: TypeEvent, Point: []float64{100, 37.25, -1e21, 1e-7}, Payload: []byte("tick"), Seq: math.MaxUint64, TraceID: math.MaxUint64},
		{Type: TypeEvent, Payload: bytes.Repeat([]byte{0xff, 0, 0x7f}, 100), Seq: 9},
	}
	idLists := [][]int{
		{1}, {1, 2}, {17, 3, 17}, {-1, 0, 1}, {math.MaxInt, math.MinInt, 9, 10, 99, 100},
		func() []int { // crosses every digit-count boundary the length prefix sees
			ids := make([]int, 300)
			for i := range ids {
				ids[i] = i * 37
			}
			return ids
		}(),
	}
	for _, ev := range events {
		for _, ids := range idLists {
			groupedFrame(t, nil, ev, ids)
			// Behind other frames, as in a queue.
			prefix, err := appendFrame([]byte("xy"), &Message{Type: TypeOK, SubID: 4})
			if err != nil {
				t.Fatal(err)
			}
			groupedFrame(t, prefix, ev, ids)
		}
	}
}

func FuzzGroupedFrame(f *testing.F) {
	f.Add(1.5, 2.0, []byte("tick"), uint64(7), uint64(99), []byte{1, 2, 3}, 2)
	f.Add(1e21, -0.0, []byte(nil), uint64(1), uint64(0), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0x80}, 1)
	f.Add(0.0, 0.0, []byte{0}, uint64(math.MaxUint64), uint64(1), []byte{0}, 0)
	f.Fuzz(func(t *testing.T, a, b float64, payload []byte, seq, traceID uint64, rawIDs []byte, dims int) {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) || len(rawIDs) == 0 {
			return // FuzzEventEncode covers what cannot be framed
		}
		ev := &Message{Type: TypeEvent, Payload: payload, Seq: seq, TraceID: traceID}
		switch dims & 3 {
		case 1:
			ev.Point = []float64{a}
		case 2:
			ev.Point = []float64{a, b}
		}
		// Eight bytes an id while they last, then one byte an id.
		var ids []int
		for len(rawIDs) >= 8 && len(ids) < 4 {
			ids = append(ids, int(int64(binary.LittleEndian.Uint64(rawIDs))))
			rawIDs = rawIDs[8:]
		}
		for _, c := range rawIDs {
			ids = append(ids, int(c))
		}
		groupedFrame(t, []byte("prefix"), ev, ids)
	})
}

// Into a queue with room, a 32-id frame does not touch the heap.
func TestGroupedFrameAllocatesNothing(t *testing.T) {
	m := benchEvent()
	m.SubID, m.SubIDs = 0, make([]int, 32)
	for i := range m.SubIDs {
		m.SubIDs[i] = 1000 + i
	}
	buf := make([]byte, 0, 32*idRoom+eventFrameBound(len(m.Point), len(m.Payload)))
	allocs := testing.AllocsPerRun(100, func() {
		out, err := appendFrame(buf, m)
		if err != nil || &out[0] != &buf[:1][0] {
			t.Fatal("encode failed, or left the caller's buffer")
		}
	})
	if allocs != 0 {
		t.Errorf("a 32-id frame: %g allocs, want 0", allocs)
	}
}

// pipeConn is a connState over net.Pipe with its writer running and a
// gate on the socket, so a test can hold the writer inside a Write while
// it fills the queue and then read what reached the peer.
func pipeConn(t *testing.T, group bool) (cs *connState, gc *gatedConn, peer net.Conn) {
	t.Helper()
	server, peer := net.Pipe()
	open := make(chan struct{})
	close(open)
	gc = &gatedConn{Conn: server, open: open}
	cs = newConnState(gc, ServerOptions{})
	cs.out.group.Store(group)
	go cs.out.writeLoop(0)
	t.Cleanup(func() {
		_ = server.Close()
		_ = peer.Close()
		cs.out.stopWriter()
	})
	return cs, gc, peer
}

// holdWriter parks the writer inside a Write of one ping frame: until
// release, everything written to cs stays in pending.
func holdWriter(t *testing.T, cs *connState, gc *gatedConn) (release func()) {
	t.Helper()
	release = gc.shut()
	if err := cs.write(&Message{Type: TypePing}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the writer to take the ping", 2*time.Second, func() bool {
		cs.out.mu.Lock()
		defer cs.out.mu.Unlock()
		return cs.out.inflight > 0
	})
	return release
}

// A list of ids that could take the frame past MaxFrame is continued in
// another frame: every id is served once, in order, in frames within the
// limit, as many to a frame as the bound leaves room for.
func TestGroupedListRespectsMaxFrame(t *testing.T) {
	ids := []int{1, 20, 300, 4000, 50000, 600000, 7}
	for _, tc := range []struct{ room, perFrame int }{{0, 1}, {idRoom - 1, 1}, {idRoom, 2}, {5*idRoom + 3, 6}} {
		// The largest payload whose one-id bound leaves at least tc.room
		// bytes, then pad the point-free bound down to exactly that with
		// the base64 step of four.
		n := (MaxFrame - tc.room - eventFrameBound(1, 0)) / 4 * 3
		slack := MaxFrame - eventFrameBound(1, n)
		if slack < tc.room || slack >= tc.room+4 {
			t.Fatalf("room %d: built a bound %d under the limit", tc.room, slack)
		}
		if want := 1 + slack/idRoom; want != tc.perFrame {
			continue // base64's step moved this case into its neighbour
		}
		cs, _, peer := pipeConn(t, true)
		ev := &broker.Event{Point: geometry.Point{5}, Payload: make([]byte, n), Seq: 3, TraceID: 4}
		done := make(chan error, 1)
		go func() { done <- cs.writeEvent(ev, slices.Clone(ids), 0) }()
		_ = peer.SetReadDeadline(time.Now().Add(20 * time.Second))
		var got []int
		for len(got) < len(ids) {
			var hdr [4]byte
			if _, err := io.ReadFull(peer, hdr[:]); err != nil {
				t.Fatal(err)
			}
			size := int(binary.BigEndian.Uint32(hdr[:]))
			if size > MaxFrame {
				t.Fatalf("room %d: a frame of %d bytes, limit %d", tc.room, size, MaxFrame)
			}
			body := make([]byte, size)
			if _, err := io.ReadFull(peer, body); err != nil {
				t.Fatal(err)
			}
			var m Message
			if err := decodeBody(body, &m); err != nil {
				t.Fatal(err)
			}
			if left := len(ids) - len(got); len(m.SubIDs) != min(tc.perFrame, left) || m.Seq != 3 || len(m.Payload) != n {
				t.Fatalf("room %d: a frame of %d ids with %d to go, want %d a frame", tc.room, len(m.SubIDs), left, tc.perFrame)
			}
			got = append(got, m.SubIDs...)
		}
		if err := <-done; err != nil || !slices.Equal(got, ids) {
			t.Fatalf("room %d: served %v (err %v), want %v", tc.room, got, err, ids)
		}
	}
}

// What the connection's queue makes of events: on a grouping connection
// one frame per writeEvent naming all its ids, on any other a frame per
// id with the bytes appendFrame yields for it — and on both, an event
// for no subscription (a pure replay's) as it stands, every frame in
// call order, the deliveries counted per id.
func TestWriteEventFraming(t *testing.T) {
	type step struct {
		msg *Message // a control frame or a pure replay's event, through write
		ev  *broker.Event
		ids []int // ev's subscriptions, through writeEvent
	}
	ev := func(seq, trace uint64) *broker.Event {
		return &broker.Event{Point: geometry.Point{5}, Payload: []byte("p"), Seq: seq, TraceID: trace}
	}
	frame := func(e *broker.Event) Message {
		return Message{Type: TypeEvent, Point: e.Point, Payload: e.Payload, Seq: e.Seq, TraceID: e.TraceID}
	}
	replayOnly := &Message{Type: TypeEvent, Point: []float64{5}, Payload: []byte("p"), Seq: 4}
	in := []step{
		{ev: ev(1, 9), ids: []int{1, 2}},
		{msg: &Message{Type: TypeOK, SubID: 3}},
		{ev: ev(1, 9), ids: []int{3}},       // a replay's frame for one subscription
		{ev: ev(2, 9), ids: []int{1, 0, 3}}, // 0 is a subscription id like any other
		{msg: &Message{Type: TypePing}},
		{msg: replayOnly},
		{ev: ev(0, 7), ids: []int{2, 1}}, // no Seq: still an event for its subscriptions
	}
	run := func(group bool) (queued []byte, fromPeer []*Message) {
		cs, gc, peer := pipeConn(t, group)
		release := holdWriter(t, cs, gc)
		frames := 1 // holdWriter's ping
		for _, st := range in {
			var err error
			switch {
			case st.msg != nil:
				err = cs.write(st.msg)
				frames++
			case group:
				err = cs.writeEvent(st.ev, slices.Clone(st.ids), 0)
				frames++
			default:
				err = cs.writeEvent(st.ev, slices.Clone(st.ids), 0)
				frames += len(st.ids)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		cs.out.mu.Lock()
		queued, events := bytes.Clone(cs.out.pending), cs.out.events
		cs.out.mu.Unlock()
		if events != 9 {
			t.Errorf("group=%v: queue counts %d event deliveries, want 9", group, events)
		}
		release()
		_ = peer.SetReadDeadline(time.Now().Add(5 * time.Second))
		for i := 0; i < frames; i++ {
			m, err := ReadMessage(peer)
			if err != nil {
				t.Fatalf("group=%v frame %d: %v", group, i, err)
			}
			fromPeer = append(fromPeer, m)
		}
		return queued, fromPeer
	}

	_, got := run(true)
	want := []*Message{{Type: TypePing}}
	for _, st := range in {
		m := st.msg
		if m == nil {
			g := frame(st.ev)
			g.SubIDs = st.ids
			m = &g
		}
		want = append(want, m)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("grouping connection:\n got %+v\nwant %+v", got, want)
	}

	// A connection whose peer never announced group gets, for every id,
	// the frame appendFrame yields for its single-subscription message,
	// byte for byte.
	queued, _ := run(false)
	var plain []byte
	for _, st := range in {
		if st.msg != nil {
			plain, _ = appendFrame(plain, st.msg)
			continue
		}
		for _, id := range st.ids {
			m := frame(st.ev)
			m.SubID = id
			plain, _ = appendFrame(plain, &m)
		}
	}
	if !bytes.Equal(queued, plain) {
		t.Fatalf("plain connection queued\n%q\nwant\n%q", queued, plain)
	}
}

// An unsubscribe that lands between the pump finding an id registered
// and its frame entering the queue must not let the frame out behind the
// reply: writeEvent looks again, under the queue's lock, whenever the
// connection's removal count has moved.
func TestWriteEventDropsIDsRemovedSinceLookup(t *testing.T) {
	cs, gc, peer := pipeConn(t, true)
	for _, id := range []int{1, 2, 3} {
		cs.subs[id] = &connSub{}
	}
	gen := cs.subsGen.Load() // the pump's lookup: all three registered
	cs.subsMu.Lock()
	delete(cs.subs, 2) // dropSub, without a broker behind it
	cs.subsGen.Add(1)
	cs.subsMu.Unlock()
	release := holdWriter(t, cs, gc)
	ev := &broker.Event{Point: geometry.Point{5}, Seq: 1}
	if err := cs.writeEvent(ev, []int{1, 2, 3}, gen); err != nil {
		t.Fatal(err)
	}
	if err := cs.writeEvent(ev, []int{2}, gen); err != nil { // nothing left: no frame at all
		t.Fatal(err)
	}
	if err := cs.write(&Message{Type: TypeOK}); err != nil {
		t.Fatal(err)
	}
	release()
	_ = peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	var got []*Message
	for i := 0; i < 3; i++ {
		m, err := ReadMessage(peer)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m)
	}
	if got[1].Type != TypeEvent || !slices.Equal(got[1].SubIDs, []int{1, 3}) || got[2].Type != TypeOK {
		t.Fatalf("frames after the ping: %+v, %+v; want one event for [1 3], then the reply", got[1], got[2])
	}
}

// rawPeer is a hand-driven protocol peer: it sees frames, not events.
type rawPeer struct {
	t    *testing.T
	conn net.Conn
}

func dialRaw(t *testing.T, addr string) *rawPeer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(20 * time.Second))
	return &rawPeer{t: t, conn: conn}
}

func (p *rawPeer) send(m *Message) {
	p.t.Helper()
	if err := WriteMessage(p.conn, m); err != nil {
		p.t.Fatal(err)
	}
}

// recv reads one frame: decoded, and its body as it was on the stream.
func (p *rawPeer) recv() (*Message, []byte) {
	p.t.Helper()
	var hdr [4]byte
	if _, err := io.ReadFull(p.conn, hdr[:]); err != nil {
		p.t.Fatalf("reading a frame: %v", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		p.t.Fatalf("frame of %d bytes exceeds MaxFrame", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(p.conn, body); err != nil {
		p.t.Fatalf("reading a frame body: %v", err)
	}
	m := new(Message)
	if err := decodeBody(body, m); err != nil {
		p.t.Fatalf("decoding %s: %v", body, err)
	}
	return m, body
}

// request sends req and returns its OK reply, handing every event frame
// that precedes it to onEvent.
func (p *rawPeer) request(req *Message, onEvent func(*Message, []byte)) *Message {
	p.t.Helper()
	p.send(req)
	for {
		m, body := p.recv()
		switch {
		case m.Type == TypeEvent && onEvent != nil:
			onEvent(m, body)
		case m.Type == TypeOK:
			return m
		default:
			p.t.Fatalf("reply to %s: %s", req.Type, body)
		}
	}
}

// subscribe registers (0, 10] with req's other fields and returns the
// subscription id.
func (p *rawPeer) subscribe(req *Message, onEvent func(*Message, []byte)) int {
	p.t.Helper()
	req.Type, req.Rects = TypeSubscribe, []Rect{RectToWire(geometry.NewRect(0, 10))}
	return p.request(req, onEvent).SubID
}

// One connection, 32 matching subscriptions, a stream of publications
// with an unsubscribe in the middle: every publication is one frame
// naming every subscription live at the time (the broker is below the
// population at which part workers would split it into several
// elements), every subscription gets every publication exactly once and
// in order, and the cancelled one nothing after the reply to its
// unsubscribe.
func TestGroupedFanoutExactlyOnce(t *testing.T) {
	_, addr := startServer(t)
	peer := dialRaw(t, addr)
	pub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	const subs, pubs = 32, 2000
	var ids []int
	for i := 0; i < subs; i++ {
		// Buffers that hold the whole stream: no pace of the pump can
		// overflow the sink.
		ids = append(ids, peer.subscribe(&Message{Group: true, Buffer: pubs}, nil))
	}
	cancelled := ids[subs/2]
	done := make(chan error, 1)
	go func() {
		for i := 0; i < pubs; i++ {
			if _, err := pub.Publish(geometry.Point{5}, []byte(fmt.Sprintf("e%d", i))); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	last := make(map[int]uint64) // per subscription: the Seq it got last
	frames, deliveries, unsubscribed, replied := 0, 0, false, false
	for finished := false; !finished; {
		if frames == pubs/4 && !unsubscribed {
			peer.send(&Message{Type: TypeUnsubscribe, SubID: cancelled})
			unsubscribed = true
		}
		m, body := peer.recv()
		if m.Type == TypeOK && m.SubID == cancelled {
			replied = true
			continue
		}
		if m.Type != TypeEvent || len(m.SubIDs) == 0 {
			t.Fatalf("a grouping peer got %s", body)
		}
		if replied && slices.Contains(m.SubIDs, cancelled) {
			t.Fatalf("a frame names subscription %d after the reply to its unsubscribe: %s", cancelled, body)
		}
		if live := subs - len(m.SubIDs); live != 0 && !(unsubscribed && live == 1) {
			t.Fatalf("a frame of %d ids for %d subscriptions: %s", len(m.SubIDs), subs, body)
		}
		frames++
		if want := fmt.Sprintf("e%d", m.Seq-1); string(m.Payload) != want {
			t.Fatalf("Seq %d carries %q, want %q", m.Seq, m.Payload, want)
		}
		for _, id := range m.SubIDs {
			if m.Seq != last[id]+1 {
				t.Fatalf("subscription %d got Seq %d after %d: %s", id, m.Seq, last[id], body)
			}
			last[id] = m.Seq
			deliveries++
		}
		finished = true
		for _, id := range ids {
			if id != cancelled && last[id] != pubs {
				finished = false
			}
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if frames != pubs || !replied {
		t.Fatalf("%d publications arrived in %d frames (unsubscribe replied: %v)", pubs, frames, replied)
	}
	t.Logf("%d deliveries in %d frames; the cancelled subscription got %d", deliveries, frames, last[cancelled])
}

// A publication at the frame limit matching many subscriptions of one
// grouping connection: everyone gets it, in frames within MaxFrame, and
// the queue stays within its one-oversized-frame allowance.
func TestAtLimitPublishToGroupedSubscribers(t *testing.T) {
	s, b, addr := startHardenedServer(t, ServerOptions{})
	sub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	const subs = 12
	for i := 0; i < subs; i++ {
		if _, err := sub.Subscribe(geometry.NewRect(0, 10)); err != nil {
			t.Fatal(err)
		}
	}
	pub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	var cs *connState
	for _, c := range serverConns(s) {
		if c.out.group.Load() {
			cs = c
		}
	}
	if cs == nil {
		t.Fatal("no connection announced group")
	}

	// The largest payload handlePublish lets through for a one-coordinate
	// point: its event frame is bounded by exactly MaxFrame.
	n := (MaxFrame - eventFrameBound(1, 0)) / 4 * 3
	if eventFrameBound(1, n) > MaxFrame || eventFrameBound(1, n+3) <= MaxFrame {
		t.Fatalf("payload of %d bytes is not at the limit", n)
	}
	maxQueued := 0
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			q, _ := cs.queued()
			maxQueued = max(maxQueued, q)
			time.Sleep(50 * time.Microsecond)
		}
	}()
	if got, err := pub.Publish(geometry.Point{5}, make([]byte, n)); err != nil || got != subs {
		t.Fatalf("at-limit publish: n=%d err=%v", got, err)
	}
	for i := 0; i < subs; i++ {
		select {
		case ev, open := <-sub.Events():
			// A frame over MaxFrame would have ended the connection.
			if !open || len(ev.Payload) != n {
				t.Fatalf("event %d: open=%v, %d payload bytes", i, open, len(ev.Payload))
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("event %d of %d never arrived", i+1, subs)
		}
	}
	close(stop)
	wg.Wait()
	if limit := 4 + MaxFrame; maxQueued > limit {
		t.Errorf("queue reached %d bytes, one frame is at most %d", maxQueued, limit)
	}
	if got := b.Stats().Subscriptions; got != subs {
		t.Errorf("subscriptions = %d, want %d", got, subs)
	}
}

// parentMessage is the frame body as it was before group and sub_ids:
// what a peer built then sends, and all it understands.
type parentMessage struct {
	Type       Type      `json:"type"`
	Rects      []Rect    `json:"rects,omitempty"`
	Buffer     int       `json:"buffer,omitempty"`
	FromOffset uint64    `json:"from_offset,omitempty"`
	Point      []float64 `json:"point,omitempty"`
	Payload    []byte    `json:"payload,omitempty"`
	Seq        uint64    `json:"seq,omitempty"`
	TraceID    uint64    `json:"trace_id,omitempty"`
	SubID      int       `json:"sub_id,omitempty"`
	Delivered  int       `json:"delivered,omitempty"`
	Error      string    `json:"error,omitempty"`
}

// writeParent frames m as a peer built at the parent commit would.
func writeParent(w io.Writer, m *parentMessage) error {
	body, err := json.Marshal(m)
	if err != nil {
		return err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	_, err = w.Write(append(hdr[:], body...))
	return err
}

// sameAsParent fails unless body is byte for byte what the parent
// commit's encoder produced for the message it carries.
func sameAsParent(t *testing.T, body []byte) *parentMessage {
	t.Helper()
	var m parentMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("parent decoder rejected %s: %v", body, err)
	}
	want, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("frame differs from the parent's encoding:\n got %s\nwant %s", body, want)
	}
	return &m
}

// A peer that never sends group receives today's bytes — one event
// frame per subscription, nothing new in any frame — also while a
// grouping client shares the server, and both see every event.
func TestPlainPeerFramesUnchangedBesideGroupingClient(t *testing.T) {
	for _, durable := range []bool{false, true} {
		addr := ""
		if durable {
			_, addr = startDurableServer(t)
		} else {
			_, addr = startServer(t)
		}
		plain := dialRaw(t, addr)
		send := func(m *parentMessage) {
			if err := writeParent(plain.conn, m); err != nil {
				t.Fatal(err)
			}
		}
		rect := []Rect{RectToWire(geometry.NewRect(0, 10))}
		var plainIDs []int
		for i := 0; i < 3; i++ {
			send(&parentMessage{Type: TypeSubscribe, Rects: rect})
			_, body := plain.recv()
			m := sameAsParent(t, body)
			if m.Type != TypeOK {
				t.Fatalf("subscribe reply %s", body)
			}
			plainIDs = append(plainIDs, m.SubID)
		}
		cli, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		for i := 0; i < 3; i++ {
			if _, err := cli.Subscribe(geometry.NewRect(0, 10)); err != nil {
				t.Fatal(err)
			}
		}

		const pubs = 20
		for i := 0; i < pubs; i++ {
			send(&parentMessage{Type: TypePublish, Point: []float64{5}, Payload: []byte{byte(i)}})
		}
		got := make(map[int][]uint64) // subscription -> Seqs
		oks := 0
		for oks < pubs || len(got[plainIDs[0]])+len(got[plainIDs[1]])+len(got[plainIDs[2]]) < 3*pubs {
			_, body := plain.recv()
			m := sameAsParent(t, body)
			switch m.Type {
			case TypeOK:
				oks++
				if m.Delivered != 6 {
					t.Fatalf("publish reply %s, want 6 delivered", body)
				}
			case TypeEvent:
				got[m.SubID] = append(got[m.SubID], m.Seq)
			default:
				t.Fatalf("unexpected frame %s", body)
			}
		}
		for _, id := range plainIDs {
			if len(got[id]) != pubs || !slices.IsSorted(got[id]) {
				t.Errorf("plain subscription %d got Seqs %v", id, got[id])
			}
		}
		for i := 0; i < 3*pubs; i++ {
			select {
			case <-cli.Events():
			case <-time.After(5 * time.Second):
				t.Fatalf("grouping client got %d of %d events", i, 3*pubs)
			}
		}

		if durable {
			// A pure replay carries no subscription id: plain for everyone,
			// the grouping peer included.
			grouping := dialRaw(t, addr)
			n := 0
			grouping.request(&Message{Type: TypeSubscribe, Group: true, FromOffset: 1}, func(_ *Message, body []byte) {
				sameAsParent(t, body)
				if bytes.Contains(body, []byte(`"sub_id`)) {
					t.Fatalf("replay-only frame names a subscription: %s", body)
				}
				n++
			})
			if n != pubs {
				t.Fatalf("pure replay streamed %d frames, want %d", n, pubs)
			}
		}
	}
}

// A grouping client against a server that predates the key: the old
// decoder skips group, the server sends a frame per subscription, and
// the client delivers them as ever.
func TestGroupingClientAgainstPlainServer(t *testing.T) {
	server, clientConn := net.Pipe()
	defer server.Close()
	cli := NewClient(clientConn)
	defer cli.Close()
	_ = server.SetDeadline(time.Now().Add(5 * time.Second))

	reply := func(m *parentMessage) {
		if err := writeParent(server, m); err != nil {
			t.Error(err)
		}
	}
	go func() { // the old server
		for id := 1; id <= 2; id++ {
			var hdr [4]byte
			if _, err := io.ReadFull(server, hdr[:]); err != nil {
				t.Error(err)
				return
			}
			body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
			if _, err := io.ReadFull(server, body); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Contains(body, []byte(`"group":true`)) {
				t.Errorf("subscribe does not announce group: %s", body)
			}
			var req parentMessage
			if err := json.Unmarshal(body, &req); err != nil || req.Type != TypeSubscribe || len(req.Rects) != 1 {
				t.Errorf("old decoder made %+v (%v) of %s", req, err, body)
			}
			reply(&parentMessage{Type: TypeOK, SubID: id})
		}
		for seq := uint64(1); seq <= 3; seq++ {
			for id := 1; id <= 2; id++ {
				reply(&parentMessage{Type: TypeEvent, Point: []float64{5}, Payload: []byte("old"), Seq: seq, TraceID: 7, SubID: id})
			}
		}
	}()
	for want := 1; want <= 2; want++ {
		if id, err := cli.Subscribe(geometry.NewRect(0, 10)); err != nil || id != want {
			t.Fatalf("subscribe: id=%d err=%v", id, err)
		}
	}
	for i := 0; i < 6; i++ {
		select {
		case ev := <-cli.Events():
			if want := uint64(i/2 + 1); ev.Seq != want || string(ev.Payload) != "old" || ev.TraceID != 7 {
				t.Fatalf("event %d: %+v, want Seq %d", i, ev, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("event %d never arrived", i)
		}
	}
}

// A client buffer that fills part-way through a grouped frame's id list
// delivers what single frames in id order would have: the ids that
// fitted are delivered and share one record, and each of the rest is
// one drop with its own record.
func TestClientGroupedFrameFillsBuffer(t *testing.T) {
	rec := telemetry.NewRecorder(4096)
	server, clientConn := net.Pipe()
	cli := NewClientWith(clientConn, ClientOptions{Recorder: rec})
	defer cli.Close()
	defer server.Close()

	write := func(m *Message) {
		t.Helper()
		if err := WriteMessage(server, m); err != nil {
			t.Fatal(err)
		}
	}
	ids := func(from, n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = from + i
		}
		return out
	}
	// 1000 ids, then 30 more: the buffer holds 1024.
	write(&Message{Type: TypeEvent, Point: []float64{1}, Payload: []byte("a"), Seq: 41, TraceID: 5, SubIDs: ids(1, 1000)})
	write(&Message{Type: TypeEvent, Point: []float64{1}, Payload: []byte("b"), Seq: 42, TraceID: 6, SubIDs: ids(1, 30)})
	write(&Message{Type: TypeEvent, Point: []float64{1}, Seq: 43, SubID: 1})
	write(&Message{Type: TypePing})
	if m, err := ReadMessage(server); err != nil || m.Type != TypePong {
		t.Fatalf("barrier pong = %v/%v", m, err)
	}
	if d := cli.Dropped(); d != 7 {
		t.Fatalf("dropped = %d, want 7", d)
	}
	var delivered [][2]int64
	var dropped []int64
	for _, r := range rec.SnapshotFilter(0, telemetry.KindClientRecv, 0) {
		if r.Seq != 42 {
			continue
		}
		if r.TraceID != 6 {
			t.Fatalf("record %+v, want trace 6", r)
		}
		if r.Args[2] == 1 {
			if r.Args[1] != 1 {
				t.Fatalf("drop record %+v, want subs=1", r)
			}
			dropped = append(dropped, r.Args[0])
		} else {
			delivered = append(delivered, [2]int64{r.Args[0], r.Args[1]})
		}
	}
	wantDropped := make([]int64, 6)
	for i := range wantDropped {
		wantDropped[i] = int64(25 + i)
	}
	if !slices.Equal(delivered, [][2]int64{{1, 24}}) || !slices.Equal(dropped, wantDropped) {
		t.Fatalf("Seq 42: delivery records (first, subs) %v, dropped for %v", delivered, dropped)
	}
	// The events of one frame share their point and payload.
	var first broker.Event
	for i := 0; i < 1024; i++ {
		ev := <-cli.Events()
		if i == 0 {
			first = ev
		}
		if i < 1000 && (ev.Seq != 41 || &ev.Payload[0] != &first.Payload[0] || &ev.Point[0] != &first.Point[0]) {
			t.Fatalf("event %d: %+v does not share the frame's point and payload", i, ev)
		}
		if i >= 1000 && (ev.Seq != 42 || string(ev.Payload) != "b") {
			t.Fatalf("event %d: %+v", i, ev)
		}
	}
}

// A resuming subscriber joins while another subscription of the same
// grouping connection is live: replayed history is listed for the new
// subscription alone, live events from then on for both, and neither
// misses or repeats a Seq.
func TestGroupedReplayThenLive(t *testing.T) {
	log, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	b := broker.New(broker.Options{Log: log})
	defer b.Close()
	s := NewServer(b)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve(ln) }()
	defer s.Close()

	peer := dialRaw(t, ln.Addr().String())
	seen := make(map[int][]uint64)
	note := func(m *Message, body []byte) {
		if len(m.SubIDs) == 0 {
			t.Fatalf("plain event frame on a grouping connection: %s", body)
		}
		for _, id := range m.SubIDs {
			seen[id] = append(seen[id], m.Seq)
		}
	}
	live := peer.subscribe(&Message{Group: true}, note)
	const history, after = 5, 5
	for i := 0; i < history; i++ {
		if _, err := b.Publish(geometry.Point{5}, []byte("h")); err != nil {
			t.Fatal(err)
		}
	}
	resumed := peer.subscribe(&Message{FromOffset: 1}, note) // the capability is the connection's: once is enough
	for i := 0; i < after; i++ {
		if _, err := b.Publish(geometry.Point{5}, []byte("l")); err != nil {
			t.Fatal(err)
		}
	}
	for len(seen[live]) < history+after || len(seen[resumed]) < history+after {
		m, body := peer.recv()
		if m.Type != TypeEvent {
			t.Fatalf("unexpected frame %s", body)
		}
		note(m, body)
	}
	want := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if !slices.Equal(seen[live], want) || !slices.Equal(seen[resumed], want) {
		t.Fatalf("live subscription saw %v, resumed one %v, want %v each", seen[live], seen[resumed], want)
	}
}
