package opcua

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/smartfactory/sysml2conf/internal/resilience"
	"github.com/smartfactory/sysml2conf/internal/wire"
)

// Client is a connection to an OPC UA server. It multiplexes concurrent
// requests over one TCP connection and dispatches subscription
// notifications to per-subscription channels.
type Client struct {
	conn net.Conn
	w    *wire.Writer

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan *Message
	// pendingSubs maps an in-flight subscribe request to its pre-built
	// monitor. The read loop registers it in subs when the server's ack
	// arrives, before it reads the next frame: the variable may change right
	// behind the ack, and a notification read before the monitor is
	// registered has nowhere to go — lost for good if the value then stays
	// put. (broker.Client stages its subscriptions the same way.)
	pendingSubs map[uint64]*clientMonitor
	subs        map[int]*clientMonitor
	closed      bool
	readErr     error
	lost        atomic.Uint64

	timeout time.Duration
	done    chan struct{}
}

// clientMonitor tracks one subscription's delivery channel and the next
// notification sequence number expected from the server, so shed samples
// (server- or client-side) are counted instead of vanishing silently.
type clientMonitor struct {
	ch chan DataChange
	// next starts at 1, a monitored item's first number by DataChange's
	// contract, so what the server shed before the first notification this
	// client got to see is a gap like any other.
	next uint64
}

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
		pendingSubs: map[uint64]*clientMonitor{},
		subs:        map[int]*clientMonitor{},
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

// DialRetry redials addr until a connection (including the protocol
// handshake) succeeds, pacing attempts with the backoff policy. It returns
// resilience.ErrStopped when stop closes first. This is the shared redial
// primitive behind the stack's reconnect paths.
func DialRetry(addr string, timeout time.Duration, stop <-chan struct{}, policy resilience.Backoff) (*Client, error) {
	var client *Client
	err := resilience.Retry(stop, policy, func() error {
		c, err := DialTimeout(addr, timeout)
		if err != nil {
			return err
		}
		client = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	return client, nil
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
			for id, st := range c.subs {
				close(st.ch)
				delete(c.subs, id)
			}
			clear(c.pendingSubs)
			c.mu.Unlock()
			return
		}
		if m.Op == OpNotify {
			// The non-blocking send happens under the lock so Unsubscribe
			// cannot close the channel mid-send.
			c.mu.Lock()
			if st := c.subs[m.SubID]; st != nil && m.Value != nil {
				if m.Seq > 0 {
					// A jump past the expected number means the server shed
					// notifications under backpressure; count the gap.
					if m.Seq > st.next {
						c.lost.Add(m.Seq - st.next)
					}
					st.next = m.Seq + 1
				}
				dc := DataChange{SubID: m.SubID, NodeID: m.NodeID, Value: *m.Value, Seq: m.Seq}
				select {
				case st.ch <- dc:
				default:
					// Slow consumer: shed the oldest queued change, as the
					// server does, and count it. What is kept then converges
					// on the variable's latest value; shedding the newest
					// would strand a stale one whenever the value stops
					// changing. This loop is the channel's only sender, so
					// the retry finds the room it made.
					select {
					case <-st.ch:
					default:
					}
					select {
					case st.ch <- dc:
					default:
					}
					c.lost.Add(1)
				}
			}
			c.mu.Unlock()
			continue
		}
		c.mu.Lock()
		if st, ok := c.pendingSubs[m.ID]; ok {
			delete(c.pendingSubs, m.ID)
			if m.Op == OpSubscribe && m.OK {
				c.subs[m.SubID] = st
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
func (c *Client) roundTrip(req *Message, sub *clientMonitor) (*Message, error) {
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
		// registered a staged monitor with it: prefer it to a timeout, so
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

// Subscribe registers a monitored item; value changes arrive on the
// returned channel until Unsubscribe or connection loss.
func (c *Client) Subscribe(id NodeID) (int, <-chan DataChange, error) {
	// 64 deep, as the server's queue for the item is; beyond it the read
	// loop sheds the oldest and counts it (Lost).
	st := &clientMonitor{ch: make(chan DataChange, 64), next: 1}
	resp, err := c.roundTrip(&Message{Op: OpSubscribe, NodeID: id}, st)
	if err != nil {
		return 0, nil, err
	}
	return resp.SubID, st.ch, nil
}

// Lost reports how many monitored-item notifications this client knows it
// missed across all subscriptions: sequence gaps from server-side shedding
// plus its own slow-consumer drops. Samples lost this way are the expected
// cost of the lossy telemetry tier; the counter makes the loss observable.
func (c *Client) Lost() uint64 { return c.lost.Load() }

// Unsubscribe cancels a monitored item.
func (c *Client) Unsubscribe(subID int) error {
	_, err := c.roundTrip(&Message{Op: OpUnsubscribe, SubID: subID}, nil)
	c.mu.Lock()
	if st, ok := c.subs[subID]; ok {
		delete(c.subs, subID)
		close(st.ch)
	}
	c.mu.Unlock()
	return err
}
