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
	maxSeq    uint64      // highest event Seq in pending
	inflight  int         // bytes of the batch the writer is writing
	err       error       // latched: the socket failed or the writer stopped
	space     chan struct{}
	spaceWait bool // a producer waits on space; the writer closes and replaces it

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
func (cs *connState) write(m *Message) error {
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
	wasEmpty := len(q.pending) == 0
	var err error
	if q.pending, err = appendFrame(q.pending, m); err != nil {
		q.mu.Unlock()
		return err
	}
	if m.Type == TypeEvent && m.Seq > q.maxSeq {
		q.maxSeq = m.Seq
	}
	if cs.tel != nil {
		q.metas = append(q.metas, frameMeta{enqueued: time.Now(), traceID: m.TraceID, event: m.Type == TypeEvent})
	}
	q.mu.Unlock()
	if wasEmpty {
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
		batch, metas, seq := q.pending, q.metas, q.maxSeq
		q.pending, q.metas, q.maxSeq = spare[:0], spareMetas[:0], 0
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
