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
	// event pumps forever. Zero disables.
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
// discarding any events still buffered in pumps. Safe to call more than
// once. Use Shutdown to drain first.
func (s *Server) Close() {
	ln, conns := s.markClosed()
	if ln != nil {
		_ = ln.Close()
	}
	for _, cs := range conns {
		_ = cs.conn.Close()
	}
	s.wg.Wait()
}

// Shutdown gracefully drains the server: it stops accepting, cancels
// every subscription so their event pumps flush all buffered events to
// the peers, then closes the connections. If ctx expires first the
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
			_ = cs.conn.Close()
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

// connState tracks one connection's subscriptions and owns the
// goroutines (writer, event pumps, pinger) attached to the connection.
type connState struct {
	id      int64
	conn    net.Conn
	opts    ServerOptions
	tel     *wireTel
	lastSeq atomic.Uint64 // highest Seq written to the peer (see noteSent)
	out     outQueue      // frames awaiting the writer goroutine (writer.go)
	subsMu  sync.Mutex
	subs    map[int]*broker.Subscription
	done    chan struct{}

	pumpMu   sync.Mutex
	stopping bool
	draining chan struct{} // closed by drain; stops the pinger while the conn is still open
	pumps    sync.WaitGroup
}

// startPump registers one goroutine attached to the connection. It
// returns false once the connection is draining, so a drain's
// pumps.Wait never races a new Add.
func (cs *connState) startPump() bool {
	cs.pumpMu.Lock()
	defer cs.pumpMu.Unlock()
	if cs.stopping {
		return false
	}
	cs.pumps.Add(1)
	return true
}

func newConnState(conn net.Conn, opts ServerOptions) *connState {
	cs := &connState{
		id:       connIDs.Add(1),
		conn:     conn,
		opts:     opts,
		subs:     make(map[int]*broker.Subscription),
		done:     make(chan struct{}),
		draining: make(chan struct{}),
	}
	cs.out.init()
	return cs
}

// noteSent advances the connection's delivered high-water mark. Event
// pumps for different subscriptions and a concurrent replay all write
// frames, so the advance is a CAS-max: a replay streaming old offsets
// never regresses the mark.
func (cs *connState) noteSent(seq uint64) {
	for {
		cur := cs.lastSeq.Load()
		if seq <= cur || cs.lastSeq.CompareAndSwap(cur, seq) {
			return
		}
	}
}

func (cs *connState) addSub(sub *broker.Subscription) {
	cs.subsMu.Lock()
	defer cs.subsMu.Unlock()
	cs.subs[sub.ID()] = sub
}

func (cs *connState) takeSub(id int) *broker.Subscription {
	cs.subsMu.Lock()
	defer cs.subsMu.Unlock()
	sub := cs.subs[id]
	delete(cs.subs, id)
	return sub
}

func (cs *connState) drainSubs() []*broker.Subscription {
	cs.subsMu.Lock()
	defer cs.subsMu.Unlock()
	out := make([]*broker.Subscription, 0, len(cs.subs))
	for id, sub := range cs.subs {
		out = append(out, sub)
		delete(cs.subs, id)
	}
	return out
}

// drain cancels the connection's subscriptions — closing their channels,
// which lets each event pump queue its buffered backlog and exit — waits
// for the pumps, has the writer flush what they queued, then closes the
// connection.
func (cs *connState) drain() {
	cs.pumpMu.Lock()
	if !cs.stopping {
		cs.stopping = true
		// The pinger must exit while the connection is still open — it is
		// one of the pumps we are about to wait for.
		close(cs.draining)
	}
	cs.pumpMu.Unlock()
	for _, sub := range cs.drainSubs() {
		sub.Cancel()
	}
	cs.pumps.Wait()
	cs.stopWriter()
	_ = cs.conn.Close()
}

func (s *Server) handle(cs *connState) {
	go cs.writeLoop()
	if cs.opts.PingInterval > 0 && cs.startPump() {
		go func() {
			defer cs.pumps.Done()
			t := time.NewTicker(cs.opts.PingInterval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if cs.write(&Message{Type: TypePing}) != nil {
						return
					}
				case <-cs.draining:
					return
				case <-cs.done:
					return
				}
			}
		}()
	}
	defer func() {
		close(cs.done)
		for _, sub := range cs.drainSubs() {
			sub.Cancel()
		}
		_ = cs.conn.Close()
		cs.pumps.Wait()
		cs.stopWriter()
		s.mu.Lock()
		delete(s.conns, cs)
		s.mu.Unlock()
		if s.tel != nil {
			s.tel.activeConns.Add(-1)
		}
	}()

	fr := newFrameReader(cs.conn)
	m := new(Message)
	for {
		if cs.opts.IdleTimeout > 0 {
			_ = cs.conn.SetReadDeadline(time.Now().Add(cs.opts.IdleTimeout))
		}
		err := fr.read(m)
		if err != nil {
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
		switch m.Type {
		case TypeSubscribe:
			err = s.handleSubscribe(cs, m)
		case TypeUnsubscribe:
			err = s.handleUnsubscribe(cs, m)
		case TypePublish:
			err = s.handlePublish(cs, m)
		case TypePing:
			err = cs.write(&Message{Type: TypeOK})
		case TypePong:
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

// handleSubscribe registers the subscription, streams any requested log
// replay, and starts the live event pump. The returned error is a
// connection-level failure; protocol errors are reported to the peer
// instead.
func (s *Server) handleSubscribe(cs *connState, m *Message) error {
	if m.Group {
		cs.out.mu.Lock()
		cs.out.group = true
		cs.out.mu.Unlock()
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
	sub, err := s.b.SubscribeBuffered(buffer, rects...)
	if err != nil {
		return cs.write(&Message{Type: TypeError, Error: err.Error()})
	}
	cs.addSub(sub)
	if !cs.startPump() {
		// The connection began draining between our subscribe and here;
		// undo and let the read loop exit.
		if undo := cs.takeSub(sub.ID()); undo != nil {
			undo.Cancel()
		}
		return ErrServerClosed
	}

	// Start the pump immediately, before any replay. While the handler
	// streams history the pump stays in backlog mode: it drains the
	// subscription's bounded channel into a local slice instead of
	// writing frames, so live events published during a long replay are
	// never lost to buffer overflow — the backlog grows with the
	// publish rate times the replay duration instead of silently
	// dropping at a fixed depth. Once the replay finishes, ready
	// carries the replay's end offset; the pump flushes the backlog
	// from that offset (everything below it was just streamed) and goes
	// live. On a failed replay, abort tells it to exit without flushing
	// so backlog frames never interleave with the error reply.
	ready := make(chan uint64, 1)
	abort := make(chan struct{})
	go s.pumpSub(cs, sub, ready, abort)

	// The subscription is already registered, so the log's NextOffset
	// here splits history exactly: every offset below the reader's End
	// is streamed by the replay, every offset at or above it was
	// appended after registration and therefore matched the
	// subscription's snapshot — the pump delivers it.
	skipBelow := uint64(0)
	if m.FromOffset > 0 {
		r, err := s.b.Log().ReadFrom(m.FromOffset)
		if err != nil {
			close(abort)
			if undo := cs.takeSub(sub.ID()); undo != nil {
				undo.Cancel()
			}
			return cs.write(&Message{Type: TypeError, Error: err.Error()})
		}
		skipBelow = r.End()
		if _, err := s.streamReplay(cs, r, rects, sub.ID()); err != nil {
			close(abort)
			if undo := cs.takeSub(sub.ID()); undo != nil {
				undo.Cancel()
			}
			return err
		}
	}
	ready <- skipBelow
	return cs.write(&Message{Type: TypeOK, SubID: sub.ID()})
}

// pumpSub pumps one subscription's events to the connection until the
// subscription or the connection dies. It starts in backlog mode,
// buffering events locally while the handler streams a replay; ready
// (the replay's end offset) switches it live, abort makes it exit
// without writing a frame. When the subscription is cancelled (drain
// path) it still waits for the handler's verdict, then flushes —
// buffered events survive a graceful shutdown, and nothing it writes
// can interleave with the handler's replay frames.
func (s *Server) pumpSub(cs *connState, sub *broker.Subscription, ready <-chan uint64, abort <-chan struct{}) {
	defer cs.pumps.Done()
	msg := &Message{Type: TypeEvent, SubID: sub.ID()} // reused: write copies it into the frame
	writeEvent := func(ev broker.Event) bool {
		msg.Point, msg.Payload, msg.Seq, msg.TraceID = ev.Point, ev.Payload, ev.Seq, ev.TraceID
		err := cs.enqueue(msg, true)
		if err == nil || errors.Is(err, errEncode) {
			// An event that cannot be framed (a NaN coordinate or an
			// oversized payload published in-process) is skipped; the
			// connection and the subscription carry on.
			return true
		}
		sub.Cancel()
		return false
	}

	// Backlog mode: accumulate until the handler signals.
	var backlog []broker.Event
	var skipBelow uint64
	closed := false
accumulate:
	for {
		select {
		case ev, open := <-sub.Events():
			if !open {
				closed = true
				// Wait for the handler so the flush below never races
				// its replay writes.
				select {
				case skipBelow = <-ready:
					break accumulate
				case <-abort:
					return
				case <-cs.done:
					return
				}
			}
			backlog = append(backlog, ev)
		case skipBelow = <-ready:
			break accumulate
		case <-abort:
			return
		case <-cs.done:
			return
		}
	}
	for _, ev := range backlog {
		if ev.Seq < skipBelow {
			// Already streamed by the replay.
			continue
		}
		if !writeEvent(ev) {
			return
		}
	}
	backlog = nil
	if closed {
		return
	}

	// Live mode.
	for {
		select {
		case ev, open := <-sub.Events():
			if !open {
				return
			}
			if ev.Seq < skipBelow {
				continue
			}
			if !writeEvent(ev) {
				return
			}
		case <-cs.done:
			return
		}
	}
}

// streamReplay writes every log record in the reader's range that
// matches one of the rects (every record when rects is empty) as an
// event frame, returning how many were streamed. A read error
// mid-replay is reported to the peer; a write error is
// connection-fatal; a record that cannot be framed is skipped.
func (s *Server) streamReplay(cs *connState, r *wal.Reader, rects []geometry.Rect, subID int) (int, error) {
	count := 0
	msg := &Message{Type: TypeEvent, SubID: subID}
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return count, nil
		}
		if err != nil {
			return count, cs.write(&Message{Type: TypeError, Error: fmt.Sprintf("replay: %v", err)})
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
		msg.Point, msg.Payload, msg.Seq, msg.TraceID = rec.Point, rec.Payload, rec.Offset, rec.TraceID
		// rects is empty only for a pure replay, whose frames are for no
		// subscription.
		if err := cs.enqueue(msg, len(rects) > 0); err != nil {
			if errors.Is(err, errEncode) {
				continue
			}
			return count, err
		}
		count++
	}
}

// handleReplayOnly streams [from, NextOffset) unfiltered, then replies
// OK with Delivered set to the number of records streamed. The reply
// follows the events on the stream, so a client that reads its reply
// has already received every replayed frame.
func (s *Server) handleReplayOnly(cs *connState, from uint64) error {
	r, err := s.b.Log().ReadFrom(from)
	if err != nil {
		return cs.write(&Message{Type: TypeError, Error: err.Error()})
	}
	count, err := s.streamReplay(cs, r, nil, 0)
	if err != nil {
		return err
	}
	return cs.write(&Message{Type: TypeOK, Delivered: count})
}

// handleUnsubscribe cancels one of this connection's subscriptions.
func (s *Server) handleUnsubscribe(cs *connState, m *Message) error {
	sub := cs.takeSub(m.SubID)
	if sub == nil {
		return cs.write(&Message{Type: TypeError, Error: fmt.Sprintf("no subscription %d on this connection", m.SubID)})
	}
	sub.Cancel()
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

// ErrServerClosed is returned by helpers when the server has shut down.
var ErrServerClosed = errors.New("wire: server closed")
