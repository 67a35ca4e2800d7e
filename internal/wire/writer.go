package wire

import (
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
)

// pendingCap bounds the frame bytes a connection has accepted but not
// yet written to its socket, queued and in flight together. A single
// frame larger than the cap is accepted only into an empty queue.
const pendingCap = 64 << 10

// frameMeta is what the write-latency metrics need of one queued frame.
// Kept only when the server has a metrics registry, and for push's frames.
type frameMeta struct {
	enqueued time.Time
	traceID  uint64
	event    bool
}

// outQueue is a connection's outbound side, at either end: every frame
// for the peer — a server's replies, pings, replay and live events, a
// client's requests and pongs — is encoded into pending by its producer
// and written to the socket by the connection's one writer goroutine
// (writeLoop), a batch per Write. Frame order on the stream is enqueue
// order. mu is never held across a socket operation.
type outQueue struct {
	conn         net.Conn
	writeTimeout time.Duration // bounds each Write; zero disables
	// sent, set by a server, accounts for a batch its Write has written.
	sent func(maxSeq uint64, metas []frameMeta, events int)

	mu       sync.Mutex
	pending  []byte      // encoded frames the writer has not taken yet
	metas    []frameMeta // one per frame in pending that was stamped
	events   int         // event deliveries in pending: one per frame, or per id of a grouped frame
	maxSeq   uint64      // highest event Seq in pending
	inflight int         // bytes of the batch the writer is writing
	err      error       // latched: the socket failed or the writer stopped
	room     *sync.Cond  // on mu: broadcast when a write completes or fails

	// group is set once the peer has announced it (a subscribe with the
	// key): an event for the connection's subscriptions is then one frame
	// listing them (sub_ids), not a frame for each (sub_id).
	group atomic.Bool
	one   Message // scratch: the event frame being encoded; guarded by mu

	waiters    []waiter     // a client's, for its requests' replies, in frame order; guarded by mu
	collecting atomic.Int32 // how many of waiters collect

	kick     chan struct{} // pending went from empty to non-empty
	stop     chan struct{} // closed to make the writer flush and exit
	stopOnce sync.Once
	done     chan struct{} // closed when the writer has exited
}

// waiter is a client request's reply slot. collect marks a request
// whose round trip takes Events() until its reply: while one is queued,
// the read loop waits for room in Events() instead of dropping.
type waiter struct {
	reply   chan Message
	collect bool
}

func (q *outQueue) init(conn net.Conn, writeTimeout time.Duration) {
	q.conn, q.writeTimeout = conn, writeTimeout
	q.room = sync.NewCond(&q.mu)
	q.kick = make(chan struct{}, 1)
	q.stop = make(chan struct{})
	q.done = make(chan struct{})
}

// admit waits until need more bytes may be queued — which is how a
// stalled peer backs up into the connection's sink and the broker's
// overflow policy — and returns with q.mu held, or with the error of a
// writer that has failed or stopped and q.mu released.
func (q *outQueue) admit(need int) error {
	q.mu.Lock()
	for q.err == nil {
		queued := len(q.pending) + q.inflight
		if queued == 0 || queued+need <= pendingCap {
			return nil
		}
		q.room.Wait()
	}
	defer q.mu.Unlock()
	return q.err
}

// frameBound bounds m's frame for admit: eventFrameBound covers the
// control frames, an error text escapes to at most six bytes a byte, and
// an interval, {"lo":x,"hi":y} with 24-byte numbers, takes 64 with its comma.
func frameBound(m *Message) int {
	n := eventFrameBound(len(m.Point), len(m.Payload)) + 6*len(m.Error)
	for _, r := range m.Rects {
		n += 3 + 64*len(r)
	}
	return n
}

// frameLocked appends m's frame to the queue, counting it as events
// deliveries, with a frameMeta if stamp, and wakes the writer if the
// queue was empty. The caller holds q.mu, taken by admit or push. On
// errEncode nothing is queued.
func (q *outQueue) frameLocked(m *Message, events int, stamp bool) error {
	start := len(q.pending)
	var err error
	if q.pending, err = appendFrame(q.pending, m); err != nil {
		return err
	}
	q.events += events
	q.maxSeq = max(q.maxSeq, m.Seq)
	if stamp {
		q.metas = append(q.metas, frameMeta{enqueued: time.Now(), traceID: m.TraceID, event: events > 0})
	}
	if start == 0 {
		select {
		case q.kick <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
	return nil
}

// push queues m, stamped, however full the queue is. It is for a read
// loop's pong, since a read loop blocked on admit would stop reading from
// a peer that may be blocked writing to it, and for the writer's ping.
func (q *outQueue) push(m *Message) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err != nil {
		return q.err
	}
	return q.frameLocked(m, 0, true)
}

// write queues m's frame for the writer, blocking while the queue is
// full, and w, a client's waiter for m's reply, in the same critical
// section. The error is either errEncode — nothing was queued, the
// connection is unaffected — or the failure that ended the writer.
func (q *outQueue) write(m *Message, stamp bool, w waiter) error {
	if err := q.admit(frameBound(m)); err != nil {
		return err
	}
	defer q.mu.Unlock()
	events := 0
	if m.Type == TypeEvent {
		events = 1
	}
	err := q.frameLocked(m, events, stamp)
	if err == nil && w.reply != nil {
		q.waiters = append(q.waiters, w)
		if w.collect {
			q.collecting.Add(1)
		}
	}
	return err
}

// write is outQueue.write for the server. An event written this way is a
// pure replay's, for no subscription, and framed as it stands.
func (cs *connState) write(m *Message) error { return cs.out.write(m, cs.tel != nil, waiter{}) }

// idRoom is what one more id costs a frame: a comma and its digits.
const idRoom = 1 + maxIDLen

// writeEvent queues ev for the listed subscriptions of the connection:
// one frame naming them all (sub_ids) if the peer announced group, a
// frame each (sub_id) otherwise, either way the bytes json.Marshal
// yields; a list that could take the frame past MaxFrame continues in
// another. subsGen is the connection's removal count as the caller found
// the ids registered: if it has moved, they are checked again (and
// compacted) here, under the queue's lock, so that no frame naming a
// subscription is queued behind the reply to its unsubscribe. Errors are
// write's; after errEncode some of the ids may have been served.
func (cs *connState) writeEvent(ev *broker.Event, ids []int, subsGen uint64) error {
	q := &cs.out
	bound := eventFrameBound(len(ev.Point), len(ev.Payload)) // covers one id
	group := q.group.Load()
	perFrame := 1
	if group {
		perFrame += max(0, MaxFrame-bound) / idRoom
	}
	for len(ids) > 0 {
		n := min(len(ids), perFrame)
		if err := q.admit(bound + (n-1)*idRoom); err != nil {
			return err
		}
		if gen := cs.subsGen.Load(); gen != subsGen {
			cs.subsMu.Lock()
			subsGen, ids = gen, slices.DeleteFunc(ids, func(id int) bool { return cs.subs[id] == nil })
			cs.subsMu.Unlock()
			if n = min(n, len(ids)); n == 0 {
				q.mu.Unlock()
				return nil
			}
		}
		q.one = Message{Type: TypeEvent, Point: ev.Point, Payload: ev.Payload, Seq: ev.Seq, TraceID: ev.TraceID}
		if group {
			q.one.SubIDs = ids[:n]
		} else {
			q.one.SubID = ids[0]
		}
		err := q.frameLocked(&q.one, n, cs.tel != nil)
		q.one = Message{} // do not pin the payload
		q.mu.Unlock()
		if err != nil {
			return err
		}
		ids = ids[n:]
	}
	return nil
}

// writeLoop is the connection's writer goroutine. Each round takes
// everything queued and issues one Write under one writeTimeout
// deadline; only when that Write has succeeded is the batch handed to
// sent. A failed Write latches the error, closes the connection and
// releases every blocked producer. With pingEvery positive it queues a
// keepalive ping at that interval, past the cap as push does. Closing
// q.stop makes it take what is queued as its last batch — latching
// net.ErrClosed in the same critical section, so no later frame is
// accepted only to be discarded — flush it and exit.
func (q *outQueue) writeLoop(pingEvery time.Duration) {
	defer close(q.done)
	var ping <-chan time.Time
	if pingEvery > 0 {
		t := time.NewTicker(pingEvery)
		defer t.Stop()
		ping = t.C
	}

	var spare []byte
	var spareMetas []frameMeta
	for stopping := false; !stopping; {
		select {
		case <-q.kick:
		case <-ping:
			_ = q.push(&Message{Type: TypePing})
		case <-q.stop:
			stopping = true
		}
		q.mu.Lock()
		if stopping && q.err == nil {
			// This is the last batch: a frame queued behind it would never
			// be written, so from here on admit and push refuse instead.
			q.err = net.ErrClosed
		}
		batch, metas, events, seq := q.pending, q.metas, q.events, q.maxSeq
		if len(batch) == 0 { // a stale wake-up: keep spare, which pending must not share
			q.mu.Unlock()
			continue
		}
		q.pending, q.metas, q.events, q.maxSeq = spare[:0], spareMetas[:0], 0, 0
		q.inflight = len(batch)
		q.mu.Unlock()

		if q.writeTimeout > 0 {
			_ = q.conn.SetWriteDeadline(time.Now().Add(q.writeTimeout))
		}
		_, err := q.conn.Write(batch)

		q.mu.Lock()
		q.inflight = 0
		if err != nil {
			q.err = err
		}
		q.room.Broadcast()
		q.mu.Unlock()
		if err != nil {
			_ = q.conn.Close() // evict: the read loop sees the close and tears down
			return
		}

		if q.sent != nil {
			q.sent(seq, metas, events)
		}
		// Recycle the batch's storage as the next queue, unless one
		// oversized frame grew it well past the cap.
		spare, spareMetas = nil, metas
		if cap(batch) <= 2*pendingCap {
			spare = batch
		}
	}
}

// stopWriter has the writer flush what is queued and waits for it to
// exit. Safe to call more than once.
func (q *outQueue) stopWriter() {
	q.stopOnce.Do(func() { close(q.stop) })
	<-q.done
}
