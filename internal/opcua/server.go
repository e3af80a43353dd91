package opcua

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"

	"github.com/smartfactory/sysml2conf/internal/wire"
)

// monitorDepth bounds the notifications queued for one monitored item of a
// connection; beyond it the oldest is shed and the client counts the gap
// (Client.Lost).
const monitorDepth = 64

// Server exposes an AddressSpace over the framed TCP protocol.
type Server struct {
	Name  string
	Space *AddressSpace

	// ListenWrapper, when set before Listen, decorates the TCP listener —
	// the hook the fault-injection layer uses to interpose on OPC UA
	// connections.
	ListenWrapper func(net.Listener) net.Listener

	ln     net.Listener
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer creates a server around an address space.
func NewServer(name string, space *AddressSpace) *Server {
	return &Server{Name: name, Space: space, conns: map[net.Conn]struct{}{}}
}

// Listen binds to addr ("host:port"; port 0 picks a free port) and starts
// accepting connections in the background.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("opcua server %s: %w", s.Name, err)
	}
	if s.ListenWrapper != nil {
		ln = s.ListenWrapper(ln)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the bound listen address ("" before Listen).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Health reports whether the server is accepting connections.
func (s *Server) Health() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("opcua server %s: closed", s.Name)
	}
	if s.ln == nil {
		return fmt.Errorf("opcua server %s: not listening", s.Name)
	}
	return nil
}

// Close stops accepting and closes every live connection.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	r := wire.NewReader(conn)
	// One coalescing writer per connection: responses and notification
	// pushes from every subscription goroutine batch into shared flushes.
	w := wire.NewWriter(conn)
	send := func(m *Message) error { return w.WriteFrame(m) }

	// Per-connection subscriptions, cleaned up on disconnect.
	subs := map[int]struct{}{}
	var subWG sync.WaitGroup
	defer func() {
		for id := range subs {
			s.Space.Unsubscribe(id)
		}
		subWG.Wait()
	}()

	for {
		req := new(Message)
		if err := r.ReadFrame(req); err != nil {
			return
		}
		resp := &Message{ID: req.ID, Op: req.Op, OK: true}
		switch req.Op {
		case OpHello:
			resp.Endpoint = s.Name
		case OpRead:
			v, err := s.Space.Read(req.NodeID)
			if err != nil {
				resp.OK, resp.Error = false, err.Error()
			} else {
				resp.Value = &v
			}
		case OpWrite:
			if req.Value == nil {
				resp.OK, resp.Error = false, "write without value"
			} else if err := s.Space.Write(req.NodeID, *req.Value); err != nil {
				resp.OK, resp.Error = false, err.Error()
			}
		case OpCall:
			results, err := s.Space.Call(req.NodeID, req.Args)
			if err != nil {
				resp.OK, resp.Error = false, err.Error()
			} else {
				resp.Results = results
			}
		case OpBrowse:
			id := req.NodeID
			if id == "" {
				id = s.Space.Root()
			}
			info, err := s.Space.Browse(id)
			if err != nil {
				resp.OK, resp.Error = false, err.Error()
			} else {
				resp.Node = &info
			}
		case OpSubscribe:
			mon, err := s.Space.SubscribeNodes(req.NodeIDs, monitorDepth)
			if err != nil {
				resp.OK, resp.Error = false, err.Error()
				break
			}
			subs[mon.ID()] = struct{}{}
			resp.SubID = mon.ID()
			subWG.Add(1)
			go func() {
				// The subscription's one puller, for all of its items;
				// Unsubscribe (here, or the teardown above) ends it.
				defer subWG.Done()
				var batch []DataChange
				var note Message // WriteFrame encodes before it returns
				for {
					var ok bool
					if batch, ok = mon.Next(batch[:0]); !ok {
						return
					}
					for i := range batch {
						dc := &batch[i]
						// The item ID names the node: the client keeps the list.
						note = Message{Op: OpNotify, Value: &dc.Value, SubID: dc.SubID, Seq: dc.Seq, OK: true}
						if err := send(&note); err != nil {
							return
						}
					}
				}
			}()
		case OpUnsubscribe:
			if _, ok := subs[req.SubID]; ok {
				s.Space.Unsubscribe(req.SubID)
				delete(subs, req.SubID)
			} else {
				resp.OK, resp.Error = false, fmt.Sprintf("unknown subscription %d", req.SubID)
			}
		default:
			resp.OK, resp.Error = false, fmt.Sprintf("unknown op %q", req.Op)
		}
		if err := send(resp); err != nil {
			if !errors.Is(err, net.ErrClosed) {
				log.Printf("opcua server %s: send: %v", s.Name, err)
			}
			return
		}
	}
}
