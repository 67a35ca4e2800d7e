package pubsub

import (
	"net"

	"repro/internal/broker"
	"repro/internal/wire"
)

// Broker is an embeddable, concurrent content-based broker: subscribers
// register rectangles and receive matching events on channels.
type Broker = broker.Broker

// BrokerOptions tune a Broker; the zero value is usable.
type BrokerOptions = broker.Options

// BrokerSubscription is a live registration on a Broker.
type BrokerSubscription = broker.Subscription

// SubscribeOptions tune one subscription's buffer and overflow policy;
// pass to Broker.SubscribeWith.
type SubscribeOptions = broker.SubscribeOptions

// SubscriptionStats is a snapshot of one subscription's delivery
// counters (buffer depth, high-water mark, drops, eviction).
type SubscriptionStats = broker.SubStats

// OverflowPolicy selects what Publish does when a subscription's buffer
// is full.
type OverflowPolicy = broker.OverflowPolicy

// Overflow policies.
const (
	// DropNewest discards the incoming event (the default).
	DropNewest = broker.DropNewest
	// DropOldest evicts the oldest buffered event to make room.
	DropOldest = broker.DropOldest
	// Block waits up to the subscription's BlockTimeout for space.
	Block = broker.Block
	// CancelSlow evicts the overflowing subscriber outright.
	CancelSlow = broker.CancelSlow
)

// ParseOverflowPolicy converts a policy name ("drop-newest",
// "drop-oldest", "block", "cancel-slow") to the policy.
func ParseOverflowPolicy(s string) (OverflowPolicy, error) {
	return broker.ParseOverflowPolicy(s)
}

// Event is a delivered publication.
type Event = broker.Event

// BrokerStats is a snapshot of broker counters.
type BrokerStats = broker.Stats

// ShardStat is the broker index's introspection snapshot, the one entry
// of Broker.ShardStats: its subscriptions, its base (all parts
// together), overlay and stale rectangles, and its rebuilds. The broker
// has one index, packed in parts; IndexReport.ShardCount is the part
// count.
type ShardStat = broker.ShardStat

// NewBroker creates an empty broker.
func NewBroker(opts BrokerOptions) *Broker { return broker.New(opts) }

// Server exposes a Broker over TCP using the library's wire protocol.
type Server = wire.Server

// ServerOptions harden a Server against slow, stalled or half-open
// peers: per-connection write deadlines, an idle timeout backed by
// server-side keepalive pings, and eviction of peers that miss either.
type ServerOptions = wire.ServerOptions

// NewServer wraps a broker for network serving; call Serve with a
// listener.
func NewServer(b *Broker) *Server { return wire.NewServer(b) }

// NewServerWith is NewServer with explicit hardening options.
func NewServerWith(b *Broker, opts ServerOptions) *Server { return wire.NewServerWith(b, opts) }

// Client is a TCP client for a Server.
type Client = wire.Client

// Dial connects to a broker server at addr ("host:port").
func Dial(addr string) (*Client, error) { return wire.Dial(addr) }

// ReconnectingClient is a client that redials automatically and replays
// its subscriptions after connection loss.
type ReconnectingClient = wire.ReconnectingClient

// ReconnectOptions tune reconnection backoff.
type ReconnectOptions = wire.ReconnectOptions

// DialReconnecting connects with automatic redial and subscription
// replay.
func DialReconnecting(addr string, opts ReconnectOptions) (*ReconnectingClient, error) {
	return wire.DialReconnecting(addr, opts)
}

// ListenAndServe starts a broker server on addr and blocks. It is a
// convenience for daemons; use NewServer/Serve for custom listeners.
func ListenAndServe(addr string, b *Broker) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return wire.NewServer(b).Serve(ln)
}
