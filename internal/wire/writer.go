package wire

import (
	"net"
	"runtime"
	"sync"
	"time"
)

// pendingCap bounds the frame bytes a connection has accepted but not
// yet written to its socket, queued and in flight together. A single
// frame larger than the cap is accepted only into an empty queue.
const pendingCap = 64 << 10

// yieldBelow is the batch size under which the writer yields once
// before flushing, so that the other pumps the same publication made
// runnable append their frames to this batch instead of the next.
const yieldBelow = pendingCap / 4

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

	// The connection as a multicast group: once the peer has announced
	// group (a subscribe with the key), an event for a subscription is
	// queued as a grouped frame, and while that frame is still the last
	// thing in pending — tail is its offset, tailSeq and tailTrace its
	// publication — the same publication's event for another
	// subscription only adds its id to the frame. tailSeq is 0 when the
	// last frame is anything else or the writer took the batch.
	group     bool
	tail      int
	tailSeq   uint64
	tailTrace uint64
	one       Message // scratch: the grouped form of the event being queued
	oneID     [1]int

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

// write queues one frame for the writer goroutine and returns without
// waiting for the socket. It blocks while the queue is full, which is
// how a stalled peer backs up into its subscriptions' buffers and the
// broker's overflow policy. The error is either errEncode — m could not
// be framed, nothing was queued, the connection is unaffected — or the
// failure that ended the connection's writer.
func (cs *connState) write(m *Message) error { return cs.enqueue(m, false) }

// enqueue is write, with subEvent saying that m is the event frame of
// one subscription, m.SubID (zero is a subscription id like any other,
// which is why the caller has to say): on a connection whose peer
// announced group such a frame is queued in the grouped layout, joining
// the frame the same publication left at the end of the queue if there
// is one.
func (cs *connState) enqueue(m *Message, subEvent bool) error {
	q := &cs.out
	// An upper bound for events and for the small control frames the
	// server sends; an error text may be escaped to six bytes a byte.
	need := eventFrameBound(len(m.Point), len(m.Payload)) + 6*len(m.Error)
	q.mu.Lock()
	for q.err == nil {
		queued := len(q.pending) + q.inflight
		if queued == 0 || queued+need <= pendingCap {
			break
		}
		room := q.space
		q.spaceWait = true
		q.mu.Unlock()
		<-room
		q.mu.Lock()
	}
	if q.err != nil {
		err := q.err
		q.mu.Unlock()
		return err
	}
	// An event without a Seq names no publication, so nothing could join
	// its frame: it stays plain.
	grouped := subEvent && q.group && m.Seq != 0
	if grouped && m.Seq == q.tailSeq && m.TraceID == q.tailTrace {
		var ok bool
		if q.pending, ok = extendEventFrame(q.pending, q.tail, m.SubID); ok {
			// The frame is already in maxSeq and metas, and pending was
			// not empty, so the writer has its wake-up.
			q.events++
			q.mu.Unlock()
			return nil
		}
	}
	start := len(q.pending)
	var err error
	if grouped {
		q.oneID[0] = m.SubID
		q.one = Message{Type: TypeEvent, Point: m.Point, Payload: m.Payload, Seq: m.Seq, TraceID: m.TraceID, SubIDs: q.oneID[:]}
		q.pending, err = appendFrame(q.pending, &q.one)
		q.one = Message{} // do not pin the payload
	} else {
		q.pending, err = appendFrame(q.pending, m)
	}
	if err != nil {
		q.mu.Unlock()
		return err
	}
	q.tailSeq = 0
	if grouped {
		q.tail, q.tailSeq, q.tailTrace = start, m.Seq, m.TraceID
	}
	if m.Type == TypeEvent {
		q.events++
		if m.Seq > q.maxSeq {
			q.maxSeq = m.Seq
		}
	}
	if cs.tel != nil {
		q.metas = append(q.metas, frameMeta{enqueued: time.Now(), traceID: m.TraceID, event: m.Type == TypeEvent})
	}
	q.mu.Unlock()
	if start == 0 { // pending went from empty to non-empty
		select {
		case q.kick <- struct{}{}:
		default: // a wake-up is already pending
		}
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
		if len(q.pending) < yieldBelow && !stopping {
			// One publication wakes many pumps of this connection, and
			// the first to queue a frame makes this goroutine the next
			// to run: without the yield it would flush batches of one.
			q.mu.Unlock()
			runtime.Gosched()
			q.mu.Lock()
		}
		batch, metas, events, seq := q.pending, q.metas, q.events, q.maxSeq
		q.pending, q.metas, q.events, q.maxSeq, q.tailSeq = spare[:0], spareMetas[:0], 0, 0, 0
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
