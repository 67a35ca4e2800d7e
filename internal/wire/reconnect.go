package wire

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/geometry"
	"repro/internal/telemetry"
)

// ReconnectOptions tune a ReconnectingClient. The zero value is usable.
type ReconnectOptions struct {
	// InitialBackoff is the first retry delay. Zero selects 100ms.
	InitialBackoff time.Duration
	// MaxBackoff caps the retry delay, which doubles after each failed
	// redial. Zero selects 5s.
	MaxBackoff time.Duration
	// Metrics, when non-nil, receives the client's reconnect counters
	// (redial attempts and successful reconnects). Nil disables them.
	Metrics *telemetry.Registry
	// Recorder receives the client's flight records: one per redial
	// attempt and per resume, and every connection's client_publish and
	// client_recv records. Nil selects the process-wide
	// telemetry.Default() recorder.
	Recorder *telemetry.Recorder
}

func (o ReconnectOptions) withDefaults() ReconnectOptions {
	if o.InitialBackoff == 0 {
		o.InitialBackoff = 100 * time.Millisecond
	}
	if o.MaxBackoff == 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.Recorder == nil {
		o.Recorder = telemetry.Default()
	}
	return o
}

// backoffJitter spreads each redial delay uniformly across ±20 % of
// it, so a fleet of clients restarted by one server outage does not
// redial in synchronized waves.
const backoffJitter = 0.2

// nextBackoff is the delay after a failed redial that waited d: twice
// d, capped at MaxBackoff.
func (o ReconnectOptions) nextBackoff(d time.Duration) time.Duration {
	return min(2*d, o.MaxBackoff)
}

// jittered spreads d uniformly across [(1-backoffJitter)d, (1+backoffJitter)d].
func jittered(d time.Duration) time.Duration {
	return time.Duration(float64(d) * (1 + backoffJitter*(2*rand.Float64()-1)))
}

// ReconnectingClient wraps Client with automatic redial: when the
// connection drops it reconnects with exponential backoff and replays
// every live subscription. Events from all connection generations are
// merged into one channel. Delivery is at-most-once per connection
// generation — events published while disconnected are lost, like any
// pub-sub subscriber that was offline.
//
// One owner goroutine (run) holds the connection, the subscription
// table, the redial backoff and the events still to be delivered, and
// takes no lock: Subscribe, SubscribeFrom and Unsubscribe are commands
// it runs, while Publish and Dropped call the current connection, a
// Client, directly.
type ReconnectingClient struct {
	addr string
	opts ReconnectOptions

	cur  atomic.Pointer[Client] // the owner's connection; only the owner stores it
	cmds chan func(*owner)      // commands, run on the owner goroutine

	events    chan broker.Event
	done      chan struct{} // closed by Close
	exited    chan struct{} // closed when the owner has returned
	closeOnce sync.Once
	dropped   atomic.Uint64 // merged-buffer drops + drops of replaced connections
	lastSeq   atomic.Uint64 // highest Seq handed to the merged channel

	attempts   *telemetry.Counter // redials tried (nil-safe when metrics are off)
	reconnects *telemetry.Counter // redials that replayed successfully
}

var errClientClosed = errors.New("wire: client closed")

// DialReconnecting creates a reconnecting client. The initial dial is
// synchronous so misconfiguration fails fast; subsequent drops are
// handled in the background.
func DialReconnecting(addr string, opts ReconnectOptions) (*ReconnectingClient, error) {
	rc := &ReconnectingClient{
		addr:   addr,
		opts:   opts.withDefaults(),
		cmds:   make(chan func(*owner)),
		events: make(chan broker.Event, 1024),
		done:   make(chan struct{}),
		exited: make(chan struct{}),
		attempts: opts.Metrics.Counter("pubsub_wire_reconnect_attempts_total",
			"Redial attempts after a dropped connection."),
		reconnects: opts.Metrics.Counter("pubsub_wire_reconnects_total",
			"Successful reconnects with all subscriptions replayed."),
	}
	// Resume-depth visibility: where the next reconnect would resume
	// from, and how much this client has dropped. Scrape-time reads of
	// the client's own state, nothing on the delivery path.
	opts.Metrics.GaugeFunc("pubsub_wire_client_last_seq",
		"Highest Seq delivered to the application: the next resume replays from one past it.",
		func() float64 { return float64(rc.lastSeq.Load()) })
	opts.Metrics.GaugeFunc("pubsub_wire_client_dropped_events",
		"Live events lost client-side across connection generations (congestion signal).",
		func() float64 { return float64(rc.Dropped()) })
	cli, err := rc.dial()
	if err != nil {
		return nil, err
	}
	rc.cur.Store(cli)
	go rc.run(&owner{rc: rc, cli: cli})
	return rc, nil
}

// dial opens a connection whose flight records go to the client's
// recorder.
func (rc *ReconnectingClient) dial() (*Client, error) {
	return DialWith(rc.addr, ClientOptions{Recorder: rc.opts.Recorder})
}

// owner is the state only the owner goroutine touches.
type owner struct {
	rc      *ReconnectingClient
	cli     *Client
	subs    []*rsub        // the live subscriptions, in handle order
	nextID  int            // the next handle
	pending []broker.Event // collected by round trips, to be delivered in order
	redial  *time.Timer    // set while disconnected: fires for the next attempt
	backoff time.Duration  // the delay before the current attempt
	attempt int64          // the current attempt, from 1
}

// rsub is one surviving subscription: the rectangles to replay plus the
// server-assigned id on the current connection generation. resume marks
// subscriptions created by SubscribeFrom: on reconnect they ask the
// server's durable log for everything after the last event the
// application saw, instead of silently skipping the outage window.
type rsub struct {
	handle   int
	rects    []Rect
	serverID int
	resume   bool
	from     uint64 // original SubscribeFrom offset (floor for resumes)
}

// run is the owner goroutine. While events are pending it offers the
// head to Events() until the application takes it: collected events, a
// replay's above all, are delivered reliably and ahead of anything the
// connection receives later, which waits in the connection's buffer.
// With nothing pending it forwards live events, dropping one the merged
// buffer has no room for, and once disconnected it redials — only then,
// so a redial's resume offsets start past every event the dead
// connection delivered. Commands run in the same select, so a slow
// reader of Events() stalls nothing but itself.
func (rc *ReconnectingClient) run(o *owner) {
	defer close(rc.exited)
	defer func() { _ = o.cli.Close() }()
	for {
		var out chan<- broker.Event
		var head broker.Event
		var live <-chan broker.Event
		var redial <-chan time.Time
		switch {
		case len(o.pending) > 0:
			out, head = rc.events, o.pending[0]
		case o.redial != nil:
			redial = o.redial.C
		default:
			live = o.cli.Events()
		}
		select {
		case out <- head:
			o.pending = o.pending[1:]
			if len(o.pending) == 0 {
				o.pending = nil
			}
			rc.delivered(head.Seq)
		case ev, open := <-live:
			if !open {
				o.disconnect()
				continue
			}
			select {
			case rc.events <- ev:
				rc.delivered(ev.Seq)
			default:
				rc.dropped.Add(1) // merged buffer full: drop, as Client does
			}
		case <-redial:
			o.reconnect()
		case cmd := <-rc.cmds:
			cmd(o)
		case <-rc.done:
			return
		}
	}
}

// delivered advances the resume high-water mark past an event handed to
// the application; an event dropped instead must be fetched again by
// the next reconnect's replay.
func (rc *ReconnectingClient) delivered(seq uint64) {
	if seq > rc.lastSeq.Load() {
		rc.lastSeq.Store(seq)
	}
}

// do runs cmd on the owner goroutine and returns its error, or fails at
// once if the client is closed.
func (rc *ReconnectingClient) do(cmd func(*owner) error) error {
	reply := make(chan error, 1)
	select {
	case rc.cmds <- func(o *owner) { reply <- cmd(o) }:
		return <-reply
	case <-rc.done:
		return errClientClosed
	}
}

// collect makes one round trip on the owner's connection, queueing the
// events that arrive before its reply behind those already pending. It
// is a collecting round trip, so the connection drops none of them: a
// replay of any length arrives whole.
func (o *owner) collect(req *Message) (Message, error) {
	return o.cli.roundTrip(req, &o.pending)
}

// disconnect closes the owner's connection and arms the first redial.
func (o *owner) disconnect() {
	_ = o.cli.Close()
	o.attempt, o.backoff = 1, o.rc.opts.InitialBackoff
	o.redial = time.NewTimer(jittered(o.backoff))
}

// reconnect makes one redial attempt; a failed one backs off
// exponentially for the next.
func (o *owner) reconnect() {
	rc := o.rc
	rc.attempts.Inc()
	if next, err := rc.dial(); err == nil {
		rc.dropped.Add(o.cli.Dropped())
		o.cli = next
		rc.cur.Store(next)
		if o.resubscribe() {
			rc.reconnects.Inc()
			rc.opts.Recorder.Record(telemetry.KindReconnect, 0, 0,
				o.attempt, 1, o.backoff.Milliseconds(), int64(len(o.subs)))
			o.redial = nil
			return
		}
		_ = next.Close()
	}
	rc.opts.Recorder.Record(telemetry.KindReconnect, 0, 0,
		o.attempt, 0, o.backoff.Milliseconds(), 0)
	o.attempt++
	o.backoff = rc.opts.nextBackoff(o.backoff)
	o.redial.Reset(jittered(o.backoff))
}

// resubscribe replays the live subscriptions on a fresh connection in
// handle order, so the server assigns their ids in that order, and
// reports success. Handles cancelled via Unsubscribe are gone from
// o.subs, so they are never replayed.
func (o *owner) resubscribe() bool {
	rc := o.rc
	select {
	case <-rc.done: // Close may have closed the connection this one replaced, and not this one
		return false
	default:
	}
	minFrom := uint64(0)
	for _, rs := range o.subs {
		if f := rc.resumeFrom(rs); f > 0 && (minFrom == 0 || f < minFrom) {
			minFrom = f
		}
	}
	for _, rs := range o.subs {
		reply, err := o.collect(subscribeRequest(rc.resumeFrom(rs), rs.rects))
		if err != nil {
			return false
		}
		rs.serverID = reply.SubID
	}
	if minFrom > 0 {
		// Record where the resume replay picked up, so an operator can
		// see the outage window a redial recovered.
		rc.opts.Recorder.Record(telemetry.KindClientResume, 0, rc.lastSeq.Load(),
			int64(minFrom), int64(rc.lastSeq.Load()), int64(len(o.subs)), 0)
	}
	return true
}

// resumeFrom computes the offset a resuming subscription resubscribes
// from: one past the newest event the application has seen, floored by
// rs.from for a subscription requested from a future offset it has not
// reached yet. Before anything has been delivered there is no
// high-water mark, so the original request stands — in particular
// SubscribeFrom(0), "new events only", stays a plain live subscribe;
// resuming from 1 would replay the server's entire retained log to a
// client that never asked for history. Non-resuming subscriptions are
// always 0.
func (rc *ReconnectingClient) resumeFrom(rs *rsub) uint64 {
	if !rs.resume {
		return 0
	}
	last := rc.lastSeq.Load()
	if last == 0 {
		return rs.from
	}
	return max(last+1, rs.from)
}

// Subscribe registers a subscription that survives reconnects. It
// returns a local handle (stable across redials, unlike server IDs).
// Delivery is at-most-once: events published during an outage are lost.
// Use SubscribeFrom against a durability-enabled server for resume.
func (rc *ReconnectingClient) Subscribe(rects ...geometry.Rect) (int, error) {
	return rc.subscribe(0, false, rects)
}

// SubscribeFrom registers a durable subscription: the server streams
// its publication log from the given offset (0 means "new events only")
// before going live, and every reconnect resumes from one past the last
// event delivered on Events() — a restart or partition no longer loses
// events the log retained. SubscribeFrom returns once the server has
// answered, before the replay is delivered on Events(). A replay of any
// length arrives whole: it is collected off the connection during the
// round trip, whose connection waits for room rather than drop a replayed
// event, so TCP paces the server's replay to the collection.
//
// With a zero from, the resume guarantee starts at the first delivered
// event: until one arrives there is no high-water mark, so a reconnect
// in that window subscribes live again ("new events only" still)
// instead of replaying the retained log. The resume point is the
// client's single high-water mark across all subscriptions, so a client
// holding several resuming subscriptions should expect the replay to
// skip events an unrelated faster subscription already advanced past;
// use one resuming subscription per client for
// exactly-once-per-retention semantics.
func (rc *ReconnectingClient) SubscribeFrom(from uint64, rects ...geometry.Rect) (int, error) {
	return rc.subscribe(from, true, rects)
}

func (rc *ReconnectingClient) subscribe(from uint64, resume bool, rects []geometry.Rect) (int, error) {
	if len(rects) == 0 {
		return 0, errNoRects
	}
	rs := &rsub{rects: wireRects(rects), resume: resume, from: from}
	err := rc.do(func(o *owner) error {
		// A nonzero from streams a replay during the round trip.
		reply, err := o.collect(subscribeRequest(from, rs.rects))
		if err != nil {
			return err
		}
		rs.handle, rs.serverID = o.nextID, reply.SubID
		o.nextID++
		o.subs = append(o.subs, rs)
		return nil
	})
	return rs.handle, err
}

// Unsubscribe cancels a subscription by its local handle. The handle is
// removed from the replay set immediately — a cancelled subscription is
// never replayed by a later reconnect — and the cancel is forwarded to
// the server best-effort: if the connection happens to be down, the
// server-side subscription dies with it anyway.
func (rc *ReconnectingClient) Unsubscribe(handle int) error {
	return rc.do(func(o *owner) error {
		i := slices.IndexFunc(o.subs, func(rs *rsub) bool { return rs.handle == handle })
		if i < 0 {
			return fmt.Errorf("wire: no subscription with handle %d", handle)
		}
		sid := o.subs[i].serverID
		o.subs = slices.Delete(o.subs, i, i+1)
		_, _ = o.collect(&Message{Type: TypeUnsubscribe, SubID: sid}) // best-effort on a possibly dead conn
		return nil
	})
}

// Publish forwards to the current connection. It fails while
// disconnected (no offline queueing).
func (rc *ReconnectingClient) Publish(p geometry.Point, payload []byte) (int, error) {
	select {
	case <-rc.done:
		return 0, errClientClosed
	default:
	}
	return rc.cur.Load().Publish(p, payload)
}

// Events returns the merged event stream across reconnects. It closes
// only on Close.
func (rc *ReconnectingClient) Events() <-chan broker.Event { return rc.events }

// Dropped reports live events lost client-side: merged-buffer overflow
// plus per-connection buffer overflow, accumulated across generations.
// A replay never counts, since the owner collects it whole. The count
// may briefly double-count the connection a redial replaces.
func (rc *ReconnectingClient) Dropped() uint64 {
	return rc.dropped.Load() + rc.cur.Load().Dropped()
}

// LastSeq reports the highest Seq delivered to the application across
// all connection generations — the resume high-water mark: a reconnect
// replays from one past it.
func (rc *ReconnectingClient) LastSeq() uint64 { return rc.lastSeq.Load() }

// Close stops reconnection and tears down the current connection.
func (rc *ReconnectingClient) Close() (err error) {
	rc.closeOnce.Do(func() {
		close(rc.done)
		// The owner may be in a round trip on this connection: closing it
		// ends the round trip, and the owner sees done.
		err = rc.cur.Load().Close()
		<-rc.exited
		close(rc.events)
	})
	return err
}
