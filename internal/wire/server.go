package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/geometry"
	"repro/internal/health"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// ServerOptions harden a server against slow, stalled or half-open
// peers. The zero value disables every deadline, matching the behavior
// of a bare NewServer.
type ServerOptions struct {
	// WriteTimeout bounds each socket write, which carries a batch of
	// one or more queued frames. A connection whose peer cannot absorb a
	// batch within it is evicted, so one stalled reader cannot wedge its
	// event pump forever. Zero disables.
	WriteTimeout time.Duration
	// IdleTimeout evicts connections that send nothing for this long.
	// The server pings idle peers (see PingInterval); a live client
	// answers with a pong, so only dead or partitioned peers expire.
	// Zero disables.
	IdleTimeout time.Duration
	// PingInterval is how often the server pings each connection to
	// solicit the pong that keeps IdleTimeout from firing. Zero selects
	// IdleTimeout/3 when IdleTimeout is set, otherwise pings are off.
	PingInterval time.Duration
	// Metrics, when non-nil, receives the server's connection, byte and
	// frame-latency families. Nil disables metrics.
	Metrics *telemetry.Registry
	// Recorder receives flight-recorder records for publish ingest and
	// keepalive misses. Nil selects the process-wide telemetry.Default()
	// recorder.
	Recorder *telemetry.Recorder
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.PingInterval == 0 && o.IdleTimeout > 0 {
		o.PingInterval = o.IdleTimeout / 3
	}
	if o.Recorder == nil {
		o.Recorder = telemetry.Default()
	}
	return o
}

// connIDs numbers server connections for flight-recorder records.
var connIDs atomic.Int64

// Server exposes a broker over TCP. Create one with NewServer (or
// NewServerWith for hardened deadlines), then call Serve with a
// listener; Close tears everything down immediately, Shutdown drains
// gracefully first.
type Server struct {
	b    *broker.Broker
	opts ServerOptions
	tel  *wireTel

	// keepMisses mirrors the keepalive-miss metric independently of
	// whether metrics are enabled, so RegisterHealth's rate check works
	// on bare servers too.
	keepMisses atomic.Uint64

	mu        sync.Mutex
	ln        net.Listener
	conns     map[*connState]struct{}
	closed    bool
	acceptErr error // accept-loop failure while the server was still open
	wg        sync.WaitGroup
}

// NewServer wraps the broker with no deadlines (the zero ServerOptions).
func NewServer(b *broker.Broker) *Server {
	return NewServerWith(b, ServerOptions{})
}

// NewServerWith wraps the broker with explicit hardening options.
func NewServerWith(b *broker.Broker, opts ServerOptions) *Server {
	opts = opts.withDefaults()
	s := &Server{b: b, opts: opts, tel: newWireTel(opts.Metrics), conns: make(map[*connState]struct{})}
	if opts.Metrics != nil {
		opts.Metrics.GaugeFunc("pubsub_wire_max_conn_lag_events",
			"Largest per-connection lag behind the broker head, in events. Counts every publication since the connection's last delivered frame (resume depth), not missed matches.",
			func() float64 {
				var maxLag uint64
				for _, cl := range s.ConnLags() {
					if cl.LagEvents > maxLag {
						maxLag = cl.LagEvents
					}
				}
				return float64(maxLag)
			})
	}
	return s
}

// Serve accepts and handles connections until the listener is closed. It
// always returns a non-nil error; after Close it returns net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			if !s.closed {
				// The listener died under us: the server looks alive but
				// accepts nothing. Latch the error for the health check.
				s.acceptErr = err
			}
			s.mu.Unlock()
			s.wg.Wait()
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			continue
		}
		if s.tel != nil {
			conn = &countingConn{Conn: conn, in: s.tel.bytesIn, out: s.tel.bytesOut}
			s.tel.connsTotal.Inc()
			s.tel.activeConns.Add(1)
		}
		cs := newConnState(conn, s.opts)
		cs.tel = s.tel
		cs.sink = s.b.NewSink()
		// A fresh connection starts at zero lag against the current head,
		// exactly like a fresh subscription.
		cs.lastSeq.Store(s.b.Head())
		s.conns[cs] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(cs)
		}()
	}
}

// Close stops the listener and tears down every connection immediately,
// discarding any events still queued for them. Safe to call more than
// once. Use Shutdown to drain first.
func (s *Server) Close() {
	ln, conns := s.markClosed()
	if ln != nil {
		_ = ln.Close()
	}
	for _, cs := range conns {
		_ = cs.out.conn.Close()
	}
	s.wg.Wait()
}

// Shutdown gracefully drains the server: it stops accepting, cancels
// every subscription, has each connection's pump flush everything its
// sink holds to the peer, then closes the connections. If ctx expires first the
// remaining connections are torn down hard and ctx.Err() is returned.
// Safe to call more than once and concurrently with Close.
func (s *Server) Shutdown(ctx context.Context) error {
	ln, conns := s.markClosed()
	if ln != nil {
		_ = ln.Close()
	}
	done := make(chan struct{})
	go func() {
		var dwg sync.WaitGroup
		for _, cs := range conns {
			dwg.Add(1)
			go func(cs *connState) {
				defer dwg.Done()
				cs.drain()
			}(cs)
		}
		dwg.Wait()
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		for _, cs := range conns {
			_ = cs.out.conn.Close()
		}
		s.wg.Wait()
		return ctx.Err()
	}
}

// markClosed flips the closed flag and returns the listener and live
// connections to tear down (nil/empty on repeat calls).
func (s *Server) markClosed() (net.Listener, []*connState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil
	}
	s.closed = true
	conns := make([]*connState, 0, len(s.conns))
	for cs := range s.conns {
		conns = append(conns, cs)
	}
	return s.ln, conns
}

// connSub is one subscription of a connection and, for a resuming one,
// its replay→live boundary: while the handler streams the replay the
// pump holds the subscription's live events back in backlog (the other
// subscriptions keep flowing); when the handler clears replaying and
// sets skipBelow, the replay's end offset, the pump writes the backlog
// from there on and the subscription is live. Guarded by subsMu.
type connSub struct {
	sub       *broker.Subscription
	replaying bool
	skipBelow uint64 // live events below it were streamed by the replay
	backlog   []broker.Event
}

// connState tracks one connection's subscriptions and owns the
// goroutines (writer, event pump) attached to the connection.
type connState struct {
	id      int64
	opts    ServerOptions
	tel     *wireTel
	lastSeq atomic.Uint64 // highest Seq written to the peer (see noteSent)
	out     outQueue      // frames awaiting the writer goroutine (writer.go)
	// sink is the one queue every subscription of the connection is
	// delivered through; nil on a connState no server accepted.
	sink    *broker.Sink
	subsMu  sync.Mutex
	subs    map[int]*connSub
	subsGen atomic.Uint64 // removals from subs so far (see writeEvent)
	// kick wakes the pump when a replay has ended or been given up;
	// capacity 1, a burst of those is one wake-up.
	kick   chan struct{}
	done   chan struct{}
	pumped chan struct{} // closed when the pump, which handle starts, has exited
}

func newConnState(conn net.Conn, opts ServerOptions) *connState {
	cs := &connState{
		id:     connIDs.Add(1),
		opts:   opts,
		subs:   make(map[int]*connSub),
		done:   make(chan struct{}),
		kick:   make(chan struct{}, 1),
		pumped: make(chan struct{}),
	}
	cs.out.init(conn, opts.WriteTimeout)
	cs.out.sent = cs.noteSent
	return cs
}

// noteSent is the writer's account of a written batch: it raises the
// delivered high-water mark to the batch's highest Seq (a replay's may be
// lower) and, with metrics on, counts frames and events and observes
// each frame's write latency and an event frame's write stage.
func (cs *connState) noteSent(seq uint64, metas []frameMeta, events int) {
	if seq > cs.lastSeq.Load() {
		cs.lastSeq.Store(seq)
	}
	if cs.tel == nil {
		return
	}
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

// kickPump wakes the pump to look at the replay states again.
func (cs *connState) kickPump() {
	select {
	case cs.kick <- struct{}{}:
	default:
	}
}

// dropSub removes the subscription from the connection and cancels it,
// reporting whether it was there. From its return on, no event frame
// naming the subscription is queued.
func (cs *connState) dropSub(id int) bool {
	cs.subsMu.Lock()
	st := cs.subs[id]
	delete(cs.subs, id)
	cs.subsGen.Add(1)
	cs.subsMu.Unlock()
	if st == nil {
		return false
	}
	st.sub.Cancel()
	cs.kickPump() // a draining pump may be waiting for this one's replay
	return true
}

// closeSubs ends deliveries to the connection: it closes the sink and
// cancels every subscription at the broker. They stay in subs, so what
// the sink still holds for them is written.
func (cs *connState) closeSubs() {
	cs.sink.Close()
	cs.subsMu.Lock()
	defer cs.subsMu.Unlock()
	for _, st := range cs.subs {
		st.sub.Cancel()
	}
}

// drain ends deliveries into the connection's sink, waits for the pump
// to queue what the sink held, has the writer flush, then closes the
// connection.
func (cs *connState) drain() {
	cs.closeSubs()
	<-cs.pumped
	cs.out.stopWriter()
	_ = cs.out.conn.Close()
}

func (s *Server) handle(cs *connState) {
	go cs.out.writeLoop(cs.opts.PingInterval)
	go cs.pump()
	defer func() {
		close(cs.done)
		cs.closeSubs()
		_ = cs.out.conn.Close()
		<-cs.pumped
		cs.out.stopWriter()
		s.mu.Lock()
		delete(s.conns, cs)
		s.mu.Unlock()
		if s.tel != nil {
			s.tel.activeConns.Add(-1)
		}
	}()

	fr := newFrameReader(cs.out.conn)
	m := new(Message)
	for {
		if cs.opts.IdleTimeout > 0 {
			_ = cs.out.conn.SetReadDeadline(time.Now().Add(cs.opts.IdleTimeout))
		}
		err := fr.read(m)
		if err != nil && !errors.Is(err, errDecode) {
			// Disconnect: clean EOF, idle timeout or otherwise. A deadline
			// expiry means the peer missed every keepalive ping in the
			// idle window.
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if cs.tel != nil {
					cs.tel.keepaliveMisses.Inc()
				}
				s.keepMisses.Add(1)
				cs.opts.Recorder.Record(telemetry.KindKeepaliveMiss, 0, 0, cs.id, 0, 0, 0)
			}
			return
		}
		if cs.tel != nil {
			cs.tel.framesIn.Inc()
		}
		switch {
		case err != nil:
			// An undecodable body whose length held is consumed: the
			// stream is intact, so refuse the frame and read on.
			err = cs.write(&Message{Type: TypeError, Error: err.Error()})
		case m.Type == TypeSubscribe:
			err = s.handleSubscribe(cs, m)
		case m.Type == TypeUnsubscribe:
			err = s.handleUnsubscribe(cs, m)
		case m.Type == TypePublish:
			err = s.handlePublish(cs, m)
		case m.Type == TypePing:
			err = cs.write(&Message{Type: TypeOK})
		case m.Type == TypePong:
			// Keepalive reply to our ping; reading it was the point.
		default:
			err = cs.write(&Message{Type: TypeError, Error: fmt.Sprintf("unknown message type %q", m.Type)})
		}
		// A reply that could not be framed is lost, but the stream is
		// intact: only a socket failure ends the connection.
		if err != nil && !errors.Is(err, errEncode) {
			return
		}
	}
}

// handleSubscribe registers the subscription on the connection's sink
// and streams any requested log replay before it goes live. The returned
// error is a connection-level failure; protocol errors are reported to
// the peer instead.
func (s *Server) handleSubscribe(cs *connState, m *Message) error {
	if m.Group {
		cs.out.group.Store(true)
	}
	rects := make([]geometry.Rect, 0, len(m.Rects))
	for _, w := range m.Rects {
		r, err := WireToRect(w)
		if err != nil {
			return cs.write(&Message{Type: TypeError, Error: err.Error()})
		}
		rects = append(rects, r)
	}
	if m.FromOffset > 0 && s.b.Log() == nil {
		return cs.write(&Message{Type: TypeError, Error: "server has no durable log: from_offset needs -data-dir"})
	}
	if len(rects) == 0 && m.FromOffset > 0 {
		// Pure replay: no live subscription. (Without from_offset an
		// empty subscribe still gets the broker's "needs at least one
		// rectangle" error below, exactly like a legacy server.)
		return s.handleReplayOnly(cs, m.FromOffset)
	}
	buffer := m.Buffer
	if buffer <= 0 {
		buffer = 64
	}
	// Registered at the broker and announced to the pump in one step: the
	// first event can be in the sink before Subscribe returns, and the
	// pump must find the subscription — in backlog mode from its very
	// first event if a replay comes first.
	var st *connSub
	cs.subsMu.Lock()
	sub, err := s.b.SubscribeWith(broker.SubscribeOptions{Buffer: buffer, Sink: cs.sink}, rects...)
	if err == nil {
		st = &connSub{sub: sub, replaying: m.FromOffset > 0}
		cs.subs[sub.ID()] = st
	}
	cs.subsMu.Unlock()
	if err != nil {
		return cs.write(&Message{Type: TypeError, Error: err.Error()})
	}

	if m.FromOffset > 0 {
		// The subscription is already registered, so the log's NextOffset
		// here splits history exactly: every offset below the reader's End
		// is streamed by the replay, every offset at or above it was
		// appended after registration and therefore matched the
		// subscription's snapshot — the pump delivers it. A failed replay
		// removes the subscription, backlog and all, so backlog frames
		// never interleave with the error reply, which ends the request.
		r, err := s.b.Log().ReadFrom(m.FromOffset)
		if err != nil {
			cs.dropSub(sub.ID())
			return cs.write(&Message{Type: TypeError, Error: err.Error()})
		}
		if _, readErr, err := s.streamReplay(cs, r, rects, sub.ID()); err != nil || readErr != nil {
			cs.dropSub(sub.ID())
			if err != nil {
				return err
			}
			return cs.write(replayError(readErr))
		}
		// Live events below the replay's end were streamed; the backlog is
		// the pump's to write, and what arrives from now on follows it.
		cs.subsMu.Lock()
		st.replaying, st.skipBelow = false, r.End()
		cs.subsMu.Unlock()
		cs.kickPump()
	}
	return cs.write(&Message{Type: TypeOK, SubID: sub.ID()})
}

// pump is the connection's one event goroutine: it takes publications
// off the connection's sink and queues their frames until the connection
// dies or — a graceful drain — the sink is closed and empty. In a drain
// it still waits for a replay in progress to end, so that the backlog is
// written too: behind the replay's frames, never among them.
func (cs *connState) pump() {
	defer close(cs.pumped)
	var d broker.Delivery
	ready, closed := cs.sink.Ready(), false
	for {
		kicked := false
		select {
		case _, open := <-ready:
			if !open { // what Next still finds is all there will ever be
				ready, closed = nil, true
			}
		case <-cs.kick:
			kicked = true
		case <-cs.done:
			return
		}
		for cs.sink.Next(&d) {
			if !cs.deliver(&d) {
				return
			}
		}
		if kicked || closed {
			if ok, replaying := cs.flushBacklogs(); !ok || (closed && !replaying) {
				return
			}
		}
	}
}

// deliver queues one publication's frame for those of its ids that are
// live on the connection: an id no longer in subs (unsubscribed) is
// dropped, one whose replay is streaming — or whose backlog the pump has
// yet to write — is backlogged, an event the replay already streamed is
// skipped. It reports false when the connection's writer has failed.
func (cs *connState) deliver(d *broker.Delivery) bool {
	cs.subsMu.Lock()
	gen := cs.subsGen.Load()
	live := d.IDs[:0]
	for _, id := range d.IDs {
		switch st := cs.subs[id]; {
		case st == nil || d.Event.Seq < st.skipBelow:
		case st.replaying || len(st.backlog) > 0:
			st.backlog = append(st.backlog, d.Event)
		default:
			live = append(live, id)
		}
	}
	cs.subsMu.Unlock()
	// An event that cannot be framed (a NaN coordinate or an oversized
	// payload published in-process) is skipped; the connection carries on.
	err := cs.writeEvent(&d.Event, live, gen)
	return err == nil || errors.Is(err, errEncode)
}

// flushBacklogs writes the backlog of every subscription whose replay
// has ended, and reports whether the writer still works and whether some
// replay is still streaming.
func (cs *connState) flushBacklogs() (ok, replaying bool) {
	for {
		var d broker.Delivery
		var backlog []broker.Event
		cs.subsMu.Lock()
		replaying = false
		for id, st := range cs.subs {
			if st.replaying {
				replaying = true
			} else if len(st.backlog) > 0 {
				d.IDs, backlog, st.backlog = []int{id}, st.backlog, nil
				break
			}
		}
		cs.subsMu.Unlock()
		if backlog == nil {
			return true, replaying
		}
		// With its backlog taken the subscription is live: deliver skips
		// what the replay streamed and queues the rest.
		for _, d.Event = range backlog {
			if !cs.deliver(&d) {
				return false, replaying
			}
		}
	}
}

// streamReplay writes every log record in the reader's range that
// matches one of the rects (every record when rects is empty) as an
// event frame, returning how many were streamed. A read error
// mid-replay stops it and is returned as readErr: the request then ends
// at the caller's error reply (replayError). A write error is
// connection-fatal; a record that cannot be framed is skipped.
func (s *Server) streamReplay(cs *connState, r *wal.Reader, rects []geometry.Rect, subID int) (count int, readErr, err error) {
	ids := [1]int{subID}
	plain := &Message{Type: TypeEvent} // a pure replay's frame; write copies it out
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return count, nil, nil
		}
		if err != nil {
			return count, err, nil
		}
		if len(rects) > 0 {
			matched := false
			for _, rect := range rects {
				if rect.Contains(rec.Point) {
					matched = true
					break
				}
			}
			if !matched {
				continue
			}
		}
		// rects is empty only for a pure replay, whose frames are for no
		// subscription. Only this goroutine removes subscriptions: the one
		// replayed to is registered, which the current count says.
		if len(rects) > 0 {
			ev := broker.Event{Point: rec.Point, Payload: rec.Payload, Seq: rec.Offset, TraceID: rec.TraceID}
			err = cs.writeEvent(&ev, ids[:], cs.subsGen.Load())
		} else {
			plain.Point, plain.Payload, plain.Seq, plain.TraceID = rec.Point, rec.Payload, rec.Offset, rec.TraceID
			err = cs.write(plain)
		}
		if err != nil {
			if errors.Is(err, errEncode) {
				continue
			}
			return count, nil, err
		}
		count++
	}
}

// replayError is the reply that ends a request whose replay failed
// reading the log.
func replayError(readErr error) *Message {
	return &Message{Type: TypeError, Error: fmt.Sprintf("replay: %v", readErr)}
}

// handleReplayOnly streams [from, NextOffset) unfiltered, then replies
// OK with Delivered set to the number of records streamed, or the error
// if reading the log failed. The reply follows the events on the
// stream, so a client that reads its reply has already received every
// replayed frame.
func (s *Server) handleReplayOnly(cs *connState, from uint64) error {
	r, err := s.b.Log().ReadFrom(from)
	if err != nil {
		return cs.write(&Message{Type: TypeError, Error: err.Error()})
	}
	count, readErr, err := s.streamReplay(cs, r, nil, 0)
	if err != nil {
		return err
	}
	if readErr != nil {
		return cs.write(replayError(readErr))
	}
	return cs.write(&Message{Type: TypeOK, Delivered: count})
}

// handleUnsubscribe cancels one of this connection's subscriptions. No
// event frame naming it follows the reply.
func (s *Server) handleUnsubscribe(cs *connState, m *Message) error {
	if !cs.dropSub(m.SubID) {
		return cs.write(&Message{Type: TypeError, Error: fmt.Sprintf("no subscription %d on this connection", m.SubID)})
	}
	return cs.write(&Message{Type: TypeOK, SubID: m.SubID})
}

func (s *Server) handlePublish(cs *connState, m *Message) error {
	if len(m.Point) == 0 {
		return cs.write(&Message{Type: TypeError, TraceID: m.TraceID, Error: "publish needs a point"})
	}
	// Bound dimensionality here, not just in the durable log: a 1 MiB
	// frame can carry ~130k dimensions, far past what wal.Append — and
	// any sane event space — accepts. Rejecting at ingest turns it into
	// a protocol error on every server, durable or not. (MaxFrame
	// already keeps the payload under the log's MaxBody.)
	if len(m.Point) > wal.MaxPointDims {
		return cs.write(&Message{Type: TypeError, TraceID: m.TraceID,
			Error: fmt.Sprintf("publish point has %d dimensions (max %d)", len(m.Point), wal.MaxPointDims)})
	}
	// The event frames this publish fans out into add seq and sub_id to
	// it and re-render the point, so a publish that just fits MaxFrame
	// could yield events that do not. Refuse it here, to the publisher,
	// rather than discover it in every matching subscriber's pump. (The
	// bound covers one id; a grouped frame that has no room for another
	// is followed by a second frame.)
	if bound := eventFrameBound(len(m.Point), len(m.Payload)); bound > MaxFrame {
		return cs.write(&Message{Type: TypeError, TraceID: m.TraceID,
			Error: fmt.Sprintf("publish too large: its event frame could reach %d bytes (max %d)", bound, MaxFrame)})
	}
	// Wire publications are always traced: keep the client's id, or
	// assign one at ingest for old clients that did not send the field.
	traceID := m.TraceID
	if traceID == 0 {
		traceID = telemetry.NewTraceID()
	}
	cs.opts.Recorder.Record(telemetry.KindIngest, traceID, 0,
		cs.id, int64(len(m.Point)), int64(len(m.Payload)), 0)
	n, err := s.b.PublishTraced(geometry.Point(m.Point), m.Payload, traceID)
	if err != nil {
		return cs.write(&Message{Type: TypeError, Error: err.Error(), TraceID: traceID})
	}
	return cs.write(&Message{Type: TypeOK, Delivered: n, TraceID: traceID})
}

// ConnLag is one connection's delivery lag behind the broker head.
// Like a subscription's lag it is a resume depth: every publication
// since the connection's last written event frame counts, whether or
// not it matched one of the connection's subscriptions.
type ConnLag struct {
	ID        int64  `json:"id"`
	Subs      int    `json:"subs"`
	LastSeq   uint64 `json:"last_seq"`
	LagEvents uint64 `json:"lag_events"`
}

// ConnLags snapshots per-connection delivery lag, sorted by connection
// id. Atomic reads per connection; the server lock is held only to copy
// the connection set.
func (s *Server) ConnLags() []ConnLag {
	head := s.b.Head()
	s.mu.Lock()
	conns := make([]*connState, 0, len(s.conns))
	for cs := range s.conns {
		conns = append(conns, cs)
	}
	s.mu.Unlock()
	out := make([]ConnLag, 0, len(conns))
	for _, cs := range conns {
		last := cs.lastSeq.Load()
		cl := ConnLag{ID: cs.id, LastSeq: last}
		cs.subsMu.Lock()
		cl.Subs = len(cs.subs)
		cs.subsMu.Unlock()
		if head > last {
			cl.LagEvents = head - last
		}
		out = append(out, cl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RegisterHealth registers the "wire" component: unhealthy when the
// server is closed or its accept loop died under an open server,
// degraded when peers missed keepalives since the previous probe. The
// miss check diffs the cumulative counter between probes, so one
// historical eviction does not degrade the server forever.
func (s *Server) RegisterHealth(hr *health.Registry) {
	var lastMisses atomic.Uint64
	hr.Register("wire", func() (health.State, string) {
		s.mu.Lock()
		closed := s.closed
		acceptErr := s.acceptErr
		conns := len(s.conns)
		s.mu.Unlock()
		if closed {
			return health.Unhealthy, "server closed"
		}
		if acceptErr != nil {
			return health.Unhealthy, fmt.Sprintf("accept loop died: %v", acceptErr)
		}
		misses := s.keepMisses.Load()
		delta := misses - lastMisses.Swap(misses)
		if delta > 0 {
			return health.Degraded, fmt.Sprintf("%d keepalive miss(es) since last probe, %d connection(s)", delta, conns)
		}
		return health.Healthy, fmt.Sprintf("%d connection(s), %d keepalive misses total", conns, misses)
	})
}
