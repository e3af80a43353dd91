package opcua

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/smartfactory/sysml2conf/internal/ring"
	"github.com/smartfactory/sysml2conf/internal/wire"
)

// Client is a connection to an OPC UA server. It multiplexes concurrent
// requests over one TCP connection and dispatches subscription
// notifications to the queues of their monitored items.
type Client struct {
	conn net.Conn
	w    *wire.Writer

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan *Message
	// pendingSubs maps an in-flight subscribe request to its pre-built
	// subscription. The read loop registers its items in items when the
	// server's ack arrives, before it reads the next frame: a variable may
	// change right behind the ack, and a notification read before its item
	// is registered has nowhere to go — lost for good if the value then
	// stays put. (broker.Client stages its subscriptions the same way.)
	pendingSubs map[uint64]*Subscription
	items       map[int]*clientItem // by monitored item ID
	closed      bool
	readErr     error
	lost        atomic.Uint64

	timeout    time.Duration
	done       chan struct{}
	forwarders sync.WaitGroup // Subscribe's goroutines; they end with their subscription
}

// Subscription is the client side of one subscribe request: a monitored
// item per listed node, each with its own drop-oldest queue, filled by the
// connection's read loop and emptied by one consumer (Ready, Take).
// Everything in it is guarded by the client's mu, the lock the read loop
// dispatches under.
type Subscription struct {
	c     *Client
	id    int          // the first item's ID; set with the server's ack
	items []clientItem // in list order; item i has ID id+i
	readyList
}

// clientItem is one monitored item of a Subscription. Its queue holds at
// most subscribeDepth changes, as the server's queue for the item does;
// beyond it the oldest is shed and counted (Lost). next is the notification
// number expected from the server; it starts at 1, a monitored item's first
// number by DataChange's contract, so what the server shed before the
// first notification this client got to see is a gap like any other.
type clientItem struct {
	itemQueue
	sub  *Subscription
	node NodeID // as listed: a notification names only its item
	next uint64
}

// subscribeDepth bounds a client-side item queue, and Subscribe's channel.
const subscribeDepth = 64

// Dial connects to an OPC UA server at addr.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 5*time.Second)
}

// DialTimeout connects with an explicit dial and request timeout; zero or
// less means 5 seconds.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("opcua client: dial %s: %w", addr, err)
	}
	c := &Client{
		conn:        conn,
		w:           wire.NewWriter(conn),
		pending:     map[uint64]chan *Message{},
		pendingSubs: map[uint64]*Subscription{},
		items:       map[int]*clientItem{},
		timeout:     timeout,
		done:        make(chan struct{}),
	}
	go c.readLoop()
	if _, err := c.roundTrip(&Message{Op: OpHello}, nil); err != nil {
		c.Close()
		return nil, fmt.Errorf("opcua client: handshake with %s: %w", addr, err)
	}
	return c, nil
}

// Err reports the connection's terminal state: nil while usable, otherwise
// the read error that killed it (or a closed marker).
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr != nil {
		return fmt.Errorf("opcua client: connection lost: %w", c.readErr)
	}
	if c.closed {
		return errors.New("opcua client: closed")
	}
	return nil
}

// Close terminates the connection; pending requests fail.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.done
	c.forwarders.Wait()
	return err
}

func (c *Client) readLoop() {
	defer close(c.done)
	r := wire.NewReader(c.conn)
	// Notifications (the hot push path) decode into one reused struct; the
	// DataChange below copies what it keeps. Responses escape to roundTrip
	// waiters and are copied fresh.
	var mr Message
	for {
		mr = Message{}
		m := &mr
		if err := r.ReadFrame(m); err != nil {
			c.mu.Lock()
			c.readErr = err
			for id, ch := range c.pending {
				close(ch)
				delete(c.pending, id)
			}
			for id, it := range c.items {
				it.sub.end()
				delete(c.items, id)
			}
			clear(c.pendingSubs)
			c.mu.Unlock()
			return
		}
		if m.Op == OpNotify {
			c.mu.Lock()
			if it := c.items[m.SubID]; it != nil && m.Value != nil {
				if m.Seq > 0 {
					// A jump past the expected number means the server shed
					// notifications under backpressure; count the gap.
					if m.Seq > it.next {
						c.lost.Add(m.Seq - it.next)
					}
					it.next = m.Seq + 1
				}
				// A lagging consumer: shed the oldest queued change, as the
				// server does, and count it. What is kept then converges on
				// the variable's latest value; shedding the newest would
				// strand a stale one whenever the value stops changing.
				if it.sub.push(&it.itemQueue, DataChange{SubID: m.SubID, NodeID: it.node, Value: *m.Value, Seq: m.Seq}) {
					c.lost.Add(1)
				}
			}
			c.mu.Unlock()
			continue
		}
		c.mu.Lock()
		if sub, ok := c.pendingSubs[m.ID]; ok {
			delete(c.pendingSubs, m.ID)
			if m.Op == OpSubscribe && m.OK {
				sub.id = m.SubID
				for i := range sub.items {
					c.items[m.SubID+i] = &sub.items[i]
				}
			}
		}
		ch := c.pending[m.ID]
		delete(c.pending, m.ID)
		c.mu.Unlock()
		if ch != nil {
			resp := mr // waiters hold the response past this iteration
			ch <- &resp
			close(ch)
		}
	}
}

// roundTrip sends a request and waits for its response. A non-nil sub is
// staged in pendingSubs for the read loop to register with the subscribe
// ack (see the pendingSubs field).
func (c *Client) roundTrip(req *Message, sub *Subscription) (*Message, error) {
	c.mu.Lock()
	if c.closed {
		err := c.readErr
		c.mu.Unlock()
		if err == nil {
			err = errors.New("client closed")
		}
		return nil, fmt.Errorf("opcua client: %w", err)
	}
	c.nextID++
	req.ID = c.nextID
	ch := make(chan *Message, 1)
	c.pending[req.ID] = ch
	if sub != nil {
		c.pendingSubs[req.ID] = sub
	}
	c.mu.Unlock()

	if err := c.w.WriteFrame(req); err != nil {
		c.mu.Lock()
		delete(c.pending, req.ID)
		delete(c.pendingSubs, req.ID)
		c.mu.Unlock()
		return nil, fmt.Errorf("opcua client: send: %w", err)
	}

	timer := time.NewTimer(c.timeout)
	defer timer.Stop()
	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, fmt.Errorf("opcua client: connection lost: %v", c.readErr)
		}
		if !resp.OK {
			return nil, fmt.Errorf("opcua: %s", resp.Error)
		}
		return resp, nil
	case <-timer.C:
		c.mu.Lock()
		delete(c.pending, req.ID)
		delete(c.pendingSubs, req.ID)
		c.mu.Unlock()
		// The response may have raced the timer, and the read loop may have
		// registered a staged subscription with it: prefer it to a timeout, so
		// the caller's view and the client's table cannot diverge.
		select {
		case resp, ok := <-ch:
			if ok && resp.OK {
				return resp, nil
			}
		default:
		}
		return nil, fmt.Errorf("opcua client: %s request timed out after %v", req.Op, c.timeout)
	}
}

// Read fetches a variable's value.
func (c *Client) Read(id NodeID) (Variant, error) {
	resp, err := c.roundTrip(&Message{Op: OpRead, NodeID: id}, nil)
	if err != nil {
		return Variant{}, err
	}
	if resp.Value == nil {
		return Variant{}, errors.New("opcua client: read response without value")
	}
	return *resp.Value, nil
}

// Write sets a variable's value.
func (c *Client) Write(id NodeID, v Variant) error {
	_, err := c.roundTrip(&Message{Op: OpWrite, NodeID: id, Value: &v}, nil)
	return err
}

// Call invokes a method node.
func (c *Client) Call(id NodeID, args ...Variant) ([]Variant, error) {
	resp, err := c.roundTrip(&Message{Op: OpCall, NodeID: id, Args: args}, nil)
	if err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// Browse describes a node; an empty id browses the root folder.
func (c *Client) Browse(id NodeID) (NodeInfo, error) {
	resp, err := c.roundTrip(&Message{Op: OpBrowse, NodeID: id}, nil)
	if err != nil {
		return NodeInfo{}, err
	}
	if resp.Node == nil {
		return NodeInfo{}, errors.New("opcua client: browse response without node")
	}
	return *resp.Node, nil
}

// BrowseTree walks the address space from id (root when empty), returning
// every reachable node in depth-first order.
func (c *Client) BrowseTree(id NodeID) ([]NodeInfo, error) {
	info, err := c.Browse(id)
	if err != nil {
		return nil, err
	}
	out := []NodeInfo{info}
	for _, child := range info.Children {
		sub, err := c.BrowseTree(child)
		if err != nil {
			return nil, err
		}
		out = append(out, sub...)
	}
	return out, nil
}

// SubscribeNodes registers one monitored item per listed variable in one
// request. The server takes the list whole or not at all: a node that is
// unknown or not a variable fails the call, named in the error, and nothing
// is registered. Value changes queue in the returned Subscription until
// Unsubscribe(sub.ID()) or connection loss.
func (c *Client) SubscribeNodes(ids []NodeID) (*Subscription, error) {
	sub := &Subscription{c: c, items: make([]clientItem, len(ids)), readyList: newReadyList()}
	for i := range sub.items {
		sub.items[i] = clientItem{itemQueue: itemQueue{queue: ring.Queue[DataChange]{Bound: subscribeDepth}}, sub: sub, node: ids[i], next: 1}
	}
	if _, err := c.roundTrip(&Message{Op: OpSubscribe, NodeIDs: ids}, sub); err != nil {
		return nil, err
	}
	return sub, nil
}

// ID is the subscription id, the argument to Unsubscribe. It is also the
// first item's ID: DataChange.SubID numbers the items consecutively in the
// order SubscribeNodes listed them.
func (s *Subscription) ID() int { return s.id }

// Index is the position, in the list given to SubscribeNodes, of the node a
// change of this subscription came from.
func (s *Subscription) Index(dc DataChange) int { return dc.SubID - s.id }

// Ready receives when changes are queued, and is closed when the
// subscription ends (Unsubscribe or connection loss); Take then hands out
// what is left.
func (s *Subscription) Ready() <-chan struct{} { return s.wake }

// Take appends every queued change to dst, oldest first per item, and
// reports whether the subscription is still open.
func (s *Subscription) Take(dst []DataChange) ([]DataChange, bool) {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	return s.take(dst), !s.closed
}

// Subscribe registers a monitored item on one variable: SubscribeNodes of
// one node, whose changes are moved onto the returned channel until
// Unsubscribe or connection loss. The channel holds 64 changes, as the
// server's queue for the item does; beyond it the oldest is shed and
// counted (Lost).
func (c *Client) Subscribe(id NodeID) (int, <-chan DataChange, error) {
	sub, err := c.SubscribeNodes([]NodeID{id})
	if err != nil {
		return 0, nil, err
	}
	ch := make(chan DataChange, subscribeDepth)
	c.forwarders.Add(1)
	go func() {
		defer c.forwarders.Done()
		sub.forward(ch)
	}()
	return sub.ID(), ch, nil
}

// forward moves the subscription's changes onto ch, shedding ch's oldest
// when its consumer lags, and closes ch when the subscription ends. It is
// ch's only sender, so the retry after a shed finds the room it made.
func (s *Subscription) forward(ch chan DataChange) {
	defer close(ch)
	var batch []DataChange
	for open := true; open; {
		<-s.wake
		batch, open = s.Take(batch[:0])
		for _, dc := range batch {
			select {
			case ch <- dc:
				continue
			default:
			}
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- dc:
			default:
			}
			s.c.lost.Add(1)
		}
	}
}

// Lost reports how many monitored-item notifications this client knows it
// missed across all subscriptions: sequence gaps from server-side shedding
// plus its own slow-consumer drops. Samples lost this way are the expected
// cost of the lossy telemetry tier; the counter makes the loss observable.
func (c *Client) Lost() uint64 { return c.lost.Load() }

// Unsubscribe cancels a subscription, every item of it.
func (c *Client) Unsubscribe(subID int) error {
	_, err := c.roundTrip(&Message{Op: OpUnsubscribe, SubID: subID}, nil)
	c.mu.Lock()
	if it, ok := c.items[subID]; ok && it.sub.id == subID {
		for i := range it.sub.items {
			delete(c.items, subID+i)
		}
		it.sub.end()
	}
	c.mu.Unlock()
	return err
}
