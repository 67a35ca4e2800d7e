package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/geometry"
	"repro/internal/telemetry"
)

// ClientOptions tune a wire client.
type ClientOptions struct {
	// Recorder receives flight-recorder records for publishes sent and
	// events received, correlated by trace id with the server's records.
	// Nil selects the process-wide telemetry.Default() recorder.
	Recorder *telemetry.Recorder
	// Metrics, when non-nil, registers the waterfall's client_recv
	// stage: the latency from this client's PublishTraced to its own
	// first matching event frame, with the publication's trace id as
	// the bucket exemplar. Only publishes sent by this client are
	// measured (the client has no send timestamp for anyone else's).
	Metrics *telemetry.Registry
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.Recorder == nil {
		o.Recorder = telemetry.Default()
	}
	return o
}

// Client is a TCP client for a wire server. Create one with Dial. Methods
// are safe for concurrent use and their requests are pipelined: the read
// loop hands each reply, in request order, to the oldest waiter.
type Client struct {
	opts ClientOptions
	out  outQueue // the connection, and its requests and pongs for the writer goroutine (writer.go)

	events chan broker.Event

	closeOnce sync.Once
	readErr   error
	readDone  chan struct{}

	droppedMu    sync.Mutex
	dropped      uint64
	firstDropped uint64 // Seq of the first drop since ClearFirstDropped
	hasDropped   bool

	// stageRecv plus the sent ring implement the client_recv waterfall
	// stage. PublishTraced stamps its trace id and send time into the
	// ring slot traceID%clientTraceRing (nanos first, id last — the id
	// is the guard); the read loop CASes the id out on the first
	// matching event frame, so each publish is measured exactly once
	// even when it fans out to several local subscriptions. Collisions
	// just overwrite a slot: a bounded, lossy sample by design.
	stageRecv *telemetry.Histogram
	sentTrace [clientTraceRing]atomic.Uint64
	sentNanos [clientTraceRing]atomic.Int64
}

// waiterPool recycles the channels requests await their replies on, so
// a round trip allocates none.
var waiterPool = sync.Pool{New: func() any { return make(chan Message, 1) }}

// clientTraceRing sizes the in-flight publish ring backing the
// client_recv stage. Power of two; 256 publishes in flight before
// samples start overwriting each other.
const clientTraceRing = 256

// Dial connects to a wire server.
func Dial(addr string) (*Client, error) {
	return DialWith(addr, ClientOptions{})
}

// DialWith is Dial with explicit client options.
func DialWith(addr string, opts ClientOptions) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dialing %s: %w", addr, err)
	}
	return NewClientWith(conn, opts), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return NewClientWith(conn, ClientOptions{})
}

// NewClientWith wraps an established connection with explicit options.
func NewClientWith(conn net.Conn, opts ClientOptions) *Client {
	c := &Client{
		opts:     opts.withDefaults(),
		events:   make(chan broker.Event, 1024),
		readDone: make(chan struct{}),
	}
	c.out.init(conn, 0)
	c.stageRecv = telemetry.StageHistogram(c.opts.Metrics, telemetry.StageClientRecv)
	go c.out.writeLoop(0)
	go c.readLoop()
	return c
}

// noteRecv closes the client_recv measurement for an event frame whose
// trace id matches a publish this client sent. The CAS claims the ring
// slot so duplicate deliveries of the same publication measure once.
func (c *Client) noteRecv(traceID uint64) {
	if c.stageRecv == nil || traceID == 0 {
		return
	}
	slot := traceID % clientTraceRing
	if c.sentTrace[slot].Load() != traceID || !c.sentTrace[slot].CompareAndSwap(traceID, 0) {
		return
	}
	d := time.Duration(time.Now().UnixNano() - c.sentNanos[slot].Load())
	c.stageRecv.ObserveExemplar(d.Seconds(), traceID)
}

// readLoop reads until the connection fails or a frame does not decode
// (a skipped reply would go to the wrong waiter), then fails waiters.
func (c *Client) readLoop() {
	defer c.out.stopWriter()
	defer close(c.readDone)
	defer close(c.events)
	fr := newFrameReader(c.out.conn)
	m := new(Message) // reused for every frame; a reply is copied out before it is handed over
	for {
		if err := fr.read(m); err != nil {
			c.readErr = err
			return
		}
		switch m.Type {
		case TypeEvent:
			c.noteRecv(m.TraceID)
			// A grouped frame is its publication once for every id it
			// lists, in order; the events share Point and Payload, which
			// subscribers only read, as they do in-process.
			ev := broker.Event{Point: geometry.Point(m.Point), Payload: m.Payload, Seq: m.Seq, TraceID: m.TraceID}
			ids := m.SubIDs
			if len(ids) == 0 {
				one := [1]int{m.SubID}
				ids = one[:]
			}
			c.deliver(ev, ids)
		case TypeOK, TypeError:
			var w waiter
			c.out.mu.Lock()
			if q := c.out.waiters; len(q) > 0 { // else an unsolicited reply: nobody waits for it
				w = q[0]
				c.out.waiters = append(q[:0], q[1:]...)
				if w.collect {
					// Here, not when roundTrip returns: the collector takes
					// Events() until it has this reply in hand.
					c.out.collecting.Add(-1)
				}
			}
			c.out.mu.Unlock()
			if w.reply != nil {
				w.reply <- *m
			}
		case TypePing:
			// Server-side keepalive probe: answer so an idle but live
			// connection is not evicted by the server's idle timeout.
			_ = c.out.push(&Message{Type: TypePong})
		}
	}
}

// deliver hands one frame's event to Events() once per id, in order.
// What does not fit is booked as dropped, unless a collecting round trip
// is outstanding: its goroutine takes Events() until the reply, so the
// read loop waits for room, and TCP paces the server's replay. The frame
// costs one client_recv record for the ids delivered (the first and
// their count) and one per id dropped, all stamped with the frame's
// arrival.
func (c *Client) deliver(ev broker.Event, ids []int) {
	now := c.opts.Recorder.Now()
	first, n := 0, 0
	for _, id := range ids {
		select {
		case c.events <- ev:
		default:
			if c.out.collecting.Load() == 0 {
				c.drop(ev, id, now)
				continue
			}
			c.events <- ev // the collector takes Events() until this loop hands it its reply
		}
		if n == 0 {
			first = id
		}
		n++
	}
	if n > 0 {
		c.opts.Recorder.RecordAt(now, telemetry.KindClientRecv, ev.TraceID, ev.Seq,
			int64(first), int64(n), 0, 0)
	}
}

// drop books one id's copy of ev lost to a full Events() buffer.
func (c *Client) drop(ev broker.Event, subID int, nowNS int64) {
	c.droppedMu.Lock()
	c.dropped++
	first := !c.hasDropped
	if first {
		c.firstDropped, c.hasDropped = ev.Seq, true
	}
	c.droppedMu.Unlock()
	// first_drop marks the drop that opened the current loss window:
	// the Seq a resume replay must refetch from.
	firstArg := int64(0)
	if first {
		firstArg = 1
	}
	c.opts.Recorder.RecordAt(nowNS, telemetry.KindClientRecv, ev.TraceID, ev.Seq,
		int64(subID), 1, 1, firstArg)
}

// roundTrip sends req and waits for its reply. With evs set it also
// collects the events that arrive meanwhile — Replay's, which come ahead
// of the reply — and the request is a collecting one (waiter.collect):
// until the read loop hands the reply over it drops none of them, so
// every one is collected or buffered when the reply is in.
func (c *Client) roundTrip(req *Message, evs *[]broker.Event) (Message, error) {
	w := waiterPool.Get().(chan Message)
	if err := c.out.write(req, false, waiter{reply: w, collect: evs != nil}); err != nil {
		waiterPool.Put(w)
		return Message{}, fmt.Errorf("wire: sending %s: %w", req.Type, err)
	}
	var events <-chan broker.Event
	if evs != nil {
		events = c.events
	}
	var reply Message
	for reply.Type == "" {
		select {
		case ev, open := <-events:
			if !open {
				return Message{}, fmt.Errorf("wire: connection closed mid-replay")
			}
			*evs = append(*evs, ev)
		case reply = <-w:
		case <-c.readDone:
			select {
			case reply = <-w: // it was in before the connection ended
			default:
				return Message{}, fmt.Errorf("wire: connection lost: %w", c.readErr)
			}
		}
	}
	waiterPool.Put(w)
	for n := len(events); n > 0; n-- { // what is buffered, never waiting
		select {
		case ev, open := <-events:
			if open {
				*evs = append(*evs, ev)
			}
		default:
		}
	}
	if reply.Type == TypeError {
		return reply, fmt.Errorf("wire: server error: %s", reply.Error)
	}
	return reply, nil
}

// Subscribe registers a subscription for the union of the rectangles and
// returns its server-assigned id.
func (c *Client) Subscribe(rects ...geometry.Rect) (int, error) {
	return c.SubscribeFrom(0, rects...)
}

// SubscribeFrom is Subscribe with offset-based resume: when from is
// nonzero, a durability-enabled server first streams the matching
// events already in its publication log starting at that offset
// (clamped to the oldest retained record), then switches to live
// fanout with no gap or duplicate at the boundary. Replayed and live
// events alike arrive on Events(); a replay larger than the client's
// event buffer must be drained concurrently or its overflow counts as
// Dropped, since this read loop never waits for an application to read
// Events(). ReconnectingClient.SubscribeFrom collects the replay
// instead and loses none of it.
// A zero from is never sent on the wire. Every subscribe announces the
// group capability (Message.Group): a server that knows it sends one
// event frame per publication for all of this client's matching
// subscriptions, any other server ignores the key.
func (c *Client) SubscribeFrom(from uint64, rects ...geometry.Rect) (int, error) {
	if len(rects) == 0 {
		return 0, errNoRects
	}
	reply, err := c.roundTrip(subscribeRequest(from, wireRects(rects)), nil)
	if err != nil {
		return 0, err
	}
	return reply.SubID, nil
}

var errNoRects = errors.New("wire: subscription needs at least one rectangle")

// subscribeRequest is the subscribe frame for rects from the given
// offset, announcing the group capability.
func subscribeRequest(from uint64, rects []Rect) *Message {
	return &Message{Type: TypeSubscribe, Rects: rects, FromOffset: from, Group: true}
}

// wireRects converts rects to their wire form.
func wireRects(rects []geometry.Rect) []Rect {
	out := make([]Rect, len(rects))
	for i, r := range rects {
		out[i] = RectToWire(r)
	}
	return out
}

// Replay fetches the server's durable publication log from the given
// offset (0 and 1 both mean "the oldest retained record") without
// registering a live subscription, returning the records as events in
// log order. The server sends its reply after the last replayed frame,
// and Replay drains Events() until then while the read loop waits for
// room instead of dropping, so the returned slice is complete however
// long the replay, and Dropped does not move. Run it on a connection
// with no live subscriptions, or concurrent live deliveries will be
// folded into the returned slice.
func (c *Client) Replay(from uint64) ([]broker.Event, error) {
	if from == 0 {
		from = 1
	}
	var evs []broker.Event
	if _, err := c.roundTrip(&Message{Type: TypeSubscribe, FromOffset: from}, &evs); err != nil {
		return nil, err
	}
	return evs, nil
}

// Unsubscribe cancels a subscription previously created by this client.
func (c *Client) Unsubscribe(subID int) error {
	_, err := c.roundTrip(&Message{Type: TypeUnsubscribe, SubID: subID}, nil)
	return err
}

// Ping performs a liveness round trip.
func (c *Client) Ping() error {
	_, err := c.roundTrip(&Message{Type: TypePing}, nil)
	return err
}

// Publish sends an event and returns how many subscribers it was
// delivered to (across all of the broker's clients).
func (c *Client) Publish(p geometry.Point, payload []byte) (int, error) {
	n, _, err := c.PublishTraced(p, payload)
	return n, err
}

// PublishTraced is Publish exposing the publication's trace id: the
// client assigns a fresh 64-bit id, records the send in its flight
// recorder, carries the id on the publish frame (old servers ignore the
// unknown field and the id from the reply is then 0), and returns it so
// the caller can correlate the publication across the server's
// /debug/events dump and its own recorder.
func (c *Client) PublishTraced(p geometry.Point, payload []byte) (int, uint64, error) {
	traceID := telemetry.NewTraceID()
	c.opts.Recorder.Record(telemetry.KindClientPublish, traceID, 0,
		int64(len(p)), int64(len(payload)), 0, 0)
	if c.stageRecv != nil {
		slot := traceID % clientTraceRing
		c.sentNanos[slot].Store(time.Now().UnixNano())
		c.sentTrace[slot].Store(traceID)
	}
	reply, err := c.roundTrip(&Message{Type: TypePublish, Point: p, Payload: payload, TraceID: traceID}, nil)
	if err != nil {
		return 0, traceID, err
	}
	return reply.Delivered, traceID, nil
}

// Events returns the channel of asynchronous event deliveries for all of
// this client's subscriptions. The channel closes when the connection
// drops or Close is called.
func (c *Client) Events() <-chan broker.Event { return c.events }

// Dropped reports events discarded because the local event buffer was
// full.
func (c *Client) Dropped() uint64 {
	c.droppedMu.Lock()
	defer c.droppedMu.Unlock()
	return c.dropped
}

// FirstDropped reports the sequence number of the first event discarded
// since the last ClearFirstDropped (or ever), and whether one was. A
// consumer draining a resume replay uses it as the exclusive upper bound
// of the loss-free prefix: everything below it was delivered in order.
func (c *Client) FirstDropped() (uint64, bool) {
	c.droppedMu.Lock()
	defer c.droppedMu.Unlock()
	return c.firstDropped, c.hasDropped
}

// ClearFirstDropped resets FirstDropped's tracking so it reports only
// drops from this point on. The cumulative Dropped counter is
// unaffected. Call it before a replay-bearing request so an old live
// overflow is not mistaken for a hole in the fresh replay.
func (c *Client) ClearFirstDropped() {
	c.droppedMu.Lock()
	defer c.droppedMu.Unlock()
	c.firstDropped, c.hasDropped = 0, false
}

// Close tears down the connection. Safe to call more than once.
func (c *Client) Close() error {
	var err error
	c.closeOnce.Do(func() {
		err = c.out.conn.Close()
		c.out.stopWriter()
		<-c.readDone
	})
	return err
}
