// Federated multi-broker operation: a Node wraps one Broker as a member
// of a sharded plant. Topic placement is a consistent hash of the ISA-95
// workcell (internal/placement), so every topic has exactly one owner
// shard and the federation needs no consensus:
//
//   - Ingress forwarding: a publish arriving at a node that does not own
//     the topic is submitted to the uplink Outbox of its owner (up to
//     fwdWindow in flight, results returned over the binary wire's
//     cumulative-ack channel; outbox.go), carrying the origin publisher's
//     (session, seq) verbatim. The owner's publisher-dedup high-water
//     mark is the single dedup point, so a retry — or a whole window
//     replayed after an uplink reconnect — is idempotent no matter which
//     ingress node it lands on; an ingress node can be killed mid-retry
//     without losing or duplicating anything the owner accepted.
//
//   - Egress bridging: a local subscription whose filter reaches topics
//     owned by a remote shard activates a bridge link — the local node
//     dials the owner and opens an acked at-least-once session per
//     workcell (bridgelink.go). Pulled messages are republished locally
//     and acked to the owner only afterwards; the owner's session queue
//     plus FromSeq reattach replay make a severed or flapping bridge
//     lose nothing.
//
// Topics outside the generated factory/<line>/<workcell>/... layout have
// no owner shard; they stay node-local, like $SYS topics on an MQTT
// broker. DESIGN.md §11 covers the topology and its guarantees.
package broker

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/smartfactory/sysml2conf/internal/placement"
	"github.com/smartfactory/sysml2conf/internal/resilience"
)

// NodeOptions configures one federation member.
type NodeOptions struct {
	// Workcells is the plant's workcell universe (workcell → owning
	// shard), emitted by codegen's placement pass. The node enumerates it
	// to bridge wildcard filters; ownership decisions always come from
	// the consistent-hash ring, which the emitted values match by
	// construction (property-tested in internal/codegen).
	Workcells map[string]int

	// Resolve returns the current address of a shard's broker. Called on
	// every (re)connect, so a restarted broker node with a fresh port is
	// picked up by the next dial.
	Resolve func(shard int) (string, error)

	// Dial opens a connection for a federation link. link names the edge
	// ("uplink:s0-s2", "bridge:s1-s0") so a fault injector can partition
	// or degrade one link. Nil means plain TCP.
	Dial func(link, addr string) (net.Conn, error)

	// DialTimeout bounds link dials and per-request round trips
	// (default 2s).
	DialTimeout time.Duration

	// ReconnectBackoff paces uplink and bridge-link redials (default 50ms
	// initial / 2s cap).
	ReconnectBackoff resilience.Backoff

	// RedeliveryBackoff is handed to the wrapped broker.
	RedeliveryBackoff resilience.Backoff
}

// Node is one broker plus the federation machinery that makes it a shard
// of the logical plant: ownership routing, publish uplinks to owner
// shards, and acked bridge pulls from them.
type Node struct {
	// Broker is the wrapped pub/sub core; components connect to it
	// exactly as they would to a standalone broker.
	Broker *Broker

	shard  int
	shards int
	ring   *placement.Ring
	opts   NodeOptions

	mu      sync.Mutex
	uplinks map[int]*Outbox // by owner shard
	links   map[int]*bridgeLink
	closed  bool

	forwardErrors  atomic.Uint64 // forwards failed before reaching an outbox
	bridgedIn      atomic.Uint64
	bridgeDups     atomic.Uint64
	bridgeInFlight atomic.Int64
	reconnects     atomic.Uint64
}

// NewNode wraps a fresh Broker as shard shard of a shards-wide
// federation. Call Serve on the node (or on node.Broker) to expose it.
func NewNode(shard, shards int, opts NodeOptions) *Node {
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 2 * time.Second
	}
	if opts.ReconnectBackoff.Initial == 0 {
		opts.ReconnectBackoff.Initial = 50 * time.Millisecond
	}
	if opts.ReconnectBackoff.Max == 0 {
		opts.ReconnectBackoff.Max = 2 * time.Second
	}
	n := &Node{
		Broker:  New(),
		shard:   shard,
		shards:  shards,
		ring:    placement.NewRing(shards),
		opts:    opts,
		uplinks: map[int]*Outbox{},
		links:   map[int]*bridgeLink{},
	}
	n.Broker.RedeliveryBackoff = opts.RedeliveryBackoff
	n.Broker.owns = n.owns
	n.Broker.forward = n.forwardPublish
	n.Broker.forwardAsync = n.forwardAsync
	n.Broker.onSubscribe = n.onSubscribe
	n.Broker.onUnsubscribe = n.onUnsubscribe
	return n
}

// Shard returns the node's shard index.
func (n *Node) Shard() int { return n.shard }

// Serve exposes the node's broker over TCP.
func (n *Node) Serve(addr string) error { return n.Broker.Serve(addr) }

// Addr returns the broker's TCP listen address.
func (n *Node) Addr() string { return n.Broker.Addr() }

// Health reports the wrapped broker's liveness.
func (n *Node) Health() error { return n.Broker.Health() }

// Stop is Close for callers that have no use for its error.
func (n *Node) Stop() { n.Close() }

// OwnerOf returns the shard owning a topic, or the node's own shard for
// topics outside the plant layout (those are node-local). Exposed so
// audits and tests can pick publish/consume shards that force a bridge
// hop.
func (n *Node) OwnerOf(topic string) int {
	key, ok := placement.TopicKey(topic)
	if !ok {
		return n.shard
	}
	return n.ring.Owner(key)
}

func (n *Node) owns(topic string) bool { return n.OwnerOf(topic) == n.shard }

// forwardPublish routes a publish for a remote-owned topic to its owner
// and blocks for the result — the in-process publisher path (Broker.
// Publish/PublishSeq called directly). It rides the same uplink outbox as
// the wire ingress; the payload is copied because the window retains
// entries past this call for replay, while in-process callers own their
// buffers. Errors propagate to the publisher, whose idempotent retry
// (same session and seq) is deduped by the owner.
func (n *Node) forwardPublish(topic string, payload []byte, retain bool, session string, seq uint64) (bool, error) {
	type result struct {
		dup bool
		err error
	}
	ch := make(chan result, 1)
	n.forwardAsync(topic, append([]byte(nil), payload...), retain, session, seq, func(dup bool, err error) {
		ch <- result{dup, err}
	})
	select {
	case r := <-ch:
		return r.dup, r.err
	case <-time.After(n.opts.DialTimeout):
		// The forward stays queued (sessioned entries replay and may still
		// land); the caller sees the same retryable uncertainty a dropped
		// connection gives, and its seq-carrying retry is deduped.
		n.forwardErrors.Add(1)
		return false, fmt.Errorf("broker: forward to shard %d timed out after %v", n.OwnerOf(topic), n.opts.DialTimeout)
	}
}

// forwardAsync submits a publish for a remote-owned topic to the owner's
// uplink outbox and returns; done fires with the owner's result. The
// payload must be owned by the forward (wire ingress hands over its decode
// buffer; forwardPublish copies). A full window blocks the submitter — on
// the wire path that is the publishing connection's read loop, so window
// pressure backpressures the publisher like a slow synchronous owner would,
// except it takes fwdWindow outstanding forwards to get there.
func (n *Node) forwardAsync(topic string, payload []byte, retain bool, session string, seq uint64, done func(dup bool, err error)) {
	owner := n.OwnerOf(topic)
	ob, err := n.outboxFor(owner)
	if err != nil {
		n.forwardErrors.Add(1)
		done(false, fmt.Errorf("broker: forward to shard %d: %w", owner, err))
		return
	}
	ob.Submit(topic, payload, retain, session, seq, done)
}

// outboxFor returns (starting if needed) the uplink outbox forwarding to a
// shard. It dials as "uplink:s<local>-s<owner>", the name a fault injector
// targets.
func (n *Node) outboxFor(shard int) (*Outbox, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, errClosed
	}
	ob := n.uplinks[shard]
	if ob == nil {
		name := fmt.Sprintf("uplink:s%d-s%d", n.shard, shard)
		ob = NewOutbox(fmt.Sprintf("broker: forward to shard %d", shard), func() (*Client, error) {
			conn, err := n.dialLink(name, shard)
			if err != nil {
				return nil, err
			}
			return NewClientConn(conn, n.opts.DialTimeout), nil
		}, n.opts.ReconnectBackoff)
		n.uplinks[shard] = ob
	}
	return ob, nil
}

// dialLink resolves a shard's current address and dials it through the
// configured (possibly fault-injected) dialer.
func (n *Node) dialLink(link string, shard int) (net.Conn, error) {
	if n.opts.Resolve == nil {
		return nil, errors.New("no resolver configured")
	}
	addr, err := n.opts.Resolve(shard)
	if err != nil {
		return nil, err
	}
	if n.opts.Dial != nil {
		return n.opts.Dial(link, addr)
	}
	return net.DialTimeout("tcp", addr, n.opts.DialTimeout)
}

// onSubscribe activates the bridge pulls a new local filter needs. A
// filter pinning one remote-owned workcell pulls that workcell from its
// owner; a filter spanning workcells (wildcard at or before the workcell
// level) pulls every remote-owned workcell in the configured universe.
// Establishment is asynchronous: the link dials, reattaches and replays
// in the background, exactly like an MQTT bridge coming up.
func (n *Node) onSubscribe(filter string) {
	for remote, wc := range n.remotePulls(filter) {
		if l := n.link(remote); l != nil {
			l.addPulls(wc)
		}
	}
}

// onUnsubscribe releases the pulls the filter held. The pull set is
// recomputed from the filter — the universe and the ring are both
// immutable, so the result matches what onSubscribe acquired.
func (n *Node) onUnsubscribe(filter string) {
	for remote, wc := range n.remotePulls(filter) {
		n.mu.Lock()
		l := n.links[remote]
		n.mu.Unlock()
		if l != nil {
			l.removePulls(wc)
		}
	}
}

// remotePulls maps each remote shard to the workcells a filter needs
// pulled from it. Filters that cannot match plant topics (first level
// neither "factory" nor a wildcard) bridge nothing.
func (n *Node) remotePulls(filter string) map[int][]string {
	if wc, ok := placement.FilterKey(filter); ok {
		owner := n.ring.Owner(wc)
		if owner == n.shard {
			return nil
		}
		return map[int][]string{owner: {wc}}
	}
	switch first, _, _ := strings.Cut(filter, "/"); first {
	case "factory", "+", "#":
	default:
		return nil
	}
	var out map[int][]string
	for wc := range n.opts.Workcells {
		owner := n.ring.Owner(wc)
		if owner == n.shard {
			continue
		}
		if out == nil {
			out = map[int][]string{}
		}
		out[owner] = append(out[owner], wc)
	}
	return out
}

// link returns (starting if needed) the bridge link pulling from a
// remote shard. Nil after Close.
func (n *Node) link(remote int) *bridgeLink {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil
	}
	l := n.links[remote]
	if l == nil {
		l = newBridgeLink(n, remote)
		n.links[remote] = l
		go l.run()
	}
	return l
}

// NodeStats is one node's snapshot: its broker's counters (the embedded
// Stats) and its federation traffic. The window gauges and counters expose
// the pipelined paths' health: sustained ForwardInFlight near the window
// with climbing ForwardStalls means publishers are gated on a slow owner;
// ForwardReplayed counts the idempotent restages paid for uplink
// connection loss.
type NodeStats struct {
	Stats
	Shard           int
	Forwarded       uint64 // publishes forwarded to owner shards
	ForwardErrors   uint64 // forwards that failed (publisher retries)
	ForwardInFlight uint64 // forwards currently in uplink windows
	ForwardStalls   uint64 // submissions that found their uplink window full
	ForwardReplayed uint64 // forwards restaged after uplink connection loss
	BridgedIn       uint64 // messages pulled over bridges and republished
	BridgeDups      uint64 // pulled redeliveries deduped before republish
	BridgeInFlight  uint64 // pulled messages republished but not yet acked
	Reconnects      uint64 // bridge-link reconnections
}

// NodeStats returns the node's broker and federation counters.
func (n *Node) NodeStats() NodeStats {
	clamp := func(v int64) uint64 {
		if v < 0 {
			return 0
		}
		return uint64(v)
	}
	var fwd OutboxStats
	for _, ob := range n.outboxes() {
		st := ob.Stats()
		fwd.Acked += st.Acked
		fwd.Failed += st.Failed
		fwd.InFlight += st.InFlight
		fwd.Stalls += st.Stalls
		fwd.Replayed += st.Replayed
	}
	return NodeStats{
		Stats:           n.Broker.Stats(),
		Shard:           n.shard,
		Forwarded:       fwd.Acked,
		ForwardErrors:   n.forwardErrors.Load() + fwd.Failed,
		ForwardInFlight: fwd.InFlight,
		ForwardStalls:   fwd.Stalls,
		ForwardReplayed: fwd.Replayed,
		BridgedIn:       n.bridgedIn.Load(),
		BridgeDups:      n.bridgeDups.Load(),
		BridgeInFlight:  clamp(n.bridgeInFlight.Load()),
		Reconnects:      n.reconnects.Load(),
	}
}

func (n *Node) outboxes() []*Outbox {
	n.mu.Lock()
	defer n.mu.Unlock()
	obs := make([]*Outbox, 0, len(n.uplinks))
	for _, ob := range n.uplinks {
		obs = append(obs, ob)
	}
	return obs
}

// Close tears the node down: bridge links stop, uplinks close, then the
// wrapped broker shuts down.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return n.Broker.Close()
	}
	n.closed = true
	links := make([]*bridgeLink, 0, len(n.links))
	for _, l := range n.links {
		links = append(links, l)
	}
	n.mu.Unlock()
	for _, l := range links {
		l.stopAndWait()
	}
	for _, ob := range n.outboxes() {
		ob.Close()
	}
	return n.Broker.Close()
}

// Federation is an in-process multi-node broker cluster over real TCP
// loopback links — the harness chaos tests and BenchmarkFederatedScale
// stand their plants on. The deployment simulator wires nodes itself
// (one per broker pod) and does not use this type.
type Federation struct {
	Nodes []*Node

	mu    sync.Mutex
	addrs []string
}

// NewFederation starts shards nodes serving on loopback, with the given
// workcell universe placed on the shared ring. configure, when non-nil,
// can adjust each node's options (fault-injected dialers, backoffs)
// before the node is built.
func NewFederation(shards int, workcells []string, configure func(shard int, opts *NodeOptions)) (*Federation, error) {
	f := &Federation{addrs: make([]string, shards)}
	universe := placement.NewRing(shards).Assign(workcells)
	for s := 0; s < shards; s++ {
		opts := NodeOptions{Workcells: universe, Resolve: f.Addr}
		if configure != nil {
			configure(s, &opts)
		}
		n := NewNode(s, shards, opts)
		if err := n.Serve("127.0.0.1:0"); err != nil {
			f.Close()
			return nil, err
		}
		f.mu.Lock()
		f.addrs[s] = n.Addr()
		f.mu.Unlock()
		f.Nodes = append(f.Nodes, n)
	}
	return f, nil
}

// Addr returns a shard's current listen address.
func (f *Federation) Addr(shard int) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if shard < 0 || shard >= len(f.addrs) || f.addrs[shard] == "" {
		return "", fmt.Errorf("shard %d not serving", shard)
	}
	return f.addrs[shard], nil
}

// Close shuts every node down.
func (f *Federation) Close() {
	for _, n := range f.Nodes {
		n.Close()
	}
}
