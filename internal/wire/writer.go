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
// Kept only when the server has a metrics registry.
type frameMeta struct {
	enqueued time.Time
	traceID  uint64
	event    bool
}

// outQueue is a connection's outbound side: every frame for the peer —
// replies, pings, replay and live events — is encoded into pending by
// its producer (connState.write) and written to the socket by the one
// writer goroutine (connState.writeLoop), a batch per Write. Frame
// order on the stream is enqueue order. mu is never held across a
// socket operation.
type outQueue struct {
	mu        sync.Mutex
	pending   []byte      // encoded frames the writer has not taken yet
	metas     []frameMeta // one per frame in pending, when metrics are on
	events    int         // event deliveries in pending: one per frame, or per id of a grouped frame
	maxSeq    uint64      // highest event Seq in pending
	inflight  int         // bytes of the batch the writer is writing
	err       error       // latched: the socket failed or the writer stopped
	space     chan struct{}
	spaceWait bool // a producer waits on space; the writer closes and replaces it

	// group is set once the peer has announced it (a subscribe with the
	// key): an event for the connection's subscriptions is then one frame
	// listing them (sub_ids), not a frame for each (sub_id).
	group atomic.Bool
	one   Message // scratch: the event frame being encoded; guarded by mu

	kick     chan struct{} // pending went from empty to non-empty
	stop     chan struct{} // closed to make the writer flush and exit
	stopOnce sync.Once
	done     chan struct{} // closed when the writer has exited
}

func (q *outQueue) init() {
	q.space = make(chan struct{})
	q.kick = make(chan struct{}, 1)
	q.stop = make(chan struct{})
	q.done = make(chan struct{})
}

// wakeProducers releases every producer blocked for room. Caller holds
// q.mu.
func (q *outQueue) wakeProducers() {
	if q.spaceWait {
		close(q.space)
		q.space = make(chan struct{})
		q.spaceWait = false
	}
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
		room := q.space
		q.spaceWait = true
		q.mu.Unlock()
		<-room
		q.mu.Lock()
	}
	defer q.mu.Unlock()
	return q.err
}

// frameLocked appends m's frame to the queue, counting it as events
// deliveries, releases q.mu (which the caller's admit took) and wakes the
// writer if the queue was empty. On errEncode nothing is queued.
func (cs *connState) frameLocked(m *Message, events int) error {
	q := &cs.out
	start := len(q.pending)
	var err error
	if q.pending, err = appendFrame(q.pending, m); err == nil {
		q.events += events
		q.maxSeq = max(q.maxSeq, m.Seq)
		if cs.tel != nil {
			q.metas = append(q.metas, frameMeta{enqueued: time.Now(), traceID: m.TraceID, event: events > 0})
		}
	}
	q.one = Message{} // if m was the scratch: do not pin the payload
	q.mu.Unlock()
	if err == nil && start == 0 { // pending went from empty to non-empty
		select {
		case q.kick <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
	return err
}

// write queues one frame for the writer goroutine and returns without
// waiting for the socket; it blocks while the queue is full. The error is
// either errEncode — m could not be framed, nothing was queued, the
// connection is unaffected — or the failure that ended the connection's
// writer. An event written this way is for no subscription (a pure
// replay's) and framed as it stands on every connection.
func (cs *connState) write(m *Message) error {
	// An upper bound for events and for the small control frames the
	// server sends; an error text may be escaped to six bytes a byte.
	if err := cs.out.admit(eventFrameBound(len(m.Point), len(m.Payload)) + 6*len(m.Error)); err != nil {
		return err
	}
	if m.Type == TypeEvent {
		return cs.frameLocked(m, 1)
	}
	return cs.frameLocked(m, 0)
}

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
		if err := cs.frameLocked(&q.one, n); err != nil {
			return err
		}
		ids = ids[n:]
	}
	return nil
}

// writeLoop is the connection's writer goroutine. Each round takes
// everything queued and issues one Write under one WriteTimeout
// deadline; only when that Write has succeeded are the batch's frames
// counted as sent (noteSent, frames-out, write latency, the write
// stage). A failed Write latches the error, closes the connection and
// releases every blocked producer. Closing q.stop makes it take what is
// queued as its last batch — latching net.ErrClosed in the same critical
// section, so no later frame is accepted only to be discarded — flush it
// and exit.
func (cs *connState) writeLoop() {
	q := &cs.out
	defer close(q.done)

	var spare []byte
	var spareMetas []frameMeta
	for stopping := false; !stopping; {
		select {
		case <-q.kick:
		case <-q.stop:
			stopping = true
		}
		q.mu.Lock()
		batch, metas, events, seq := q.pending, q.metas, q.events, q.maxSeq
		q.pending, q.metas, q.events, q.maxSeq = spare[:0], spareMetas[:0], 0, 0
		q.inflight = len(batch)
		if stopping && q.err == nil {
			// This is the last batch: a frame queued behind it would never
			// be written, so from here on write refuses instead.
			q.err = net.ErrClosed
		}
		q.mu.Unlock()
		if len(batch) == 0 {
			continue
		}

		if cs.opts.WriteTimeout > 0 {
			_ = cs.conn.SetWriteDeadline(time.Now().Add(cs.opts.WriteTimeout))
		}
		_, err := cs.conn.Write(batch)

		q.mu.Lock()
		q.inflight = 0
		if err != nil {
			q.err = err
		}
		q.wakeProducers()
		q.mu.Unlock()
		if err != nil {
			_ = cs.conn.Close() // evict: the read loop sees the close and tears down
			return
		}

		cs.noteSent(seq)
		if cs.tel != nil {
			now := time.Now()
			cs.tel.framesOut.Add(uint64(len(metas)))
			cs.tel.eventsOut.Add(uint64(events))
			for _, fm := range metas {
				d := now.Sub(fm.enqueued)
				cs.tel.writeLatency.ObserveDuration(d)
				if fm.event {
					cs.tel.stageWrite.ObserveExemplar(d.Seconds(), fm.traceID)
				}
			}
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
func (cs *connState) stopWriter() {
	cs.out.stopOnce.Do(func() { close(cs.out.stop) })
	<-cs.out.done
}
