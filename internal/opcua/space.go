// Package opcua implements a simulated OPC Unified Architecture stack: a
// hierarchical address space of objects, variables and methods, plus a
// TCP server and client speaking a compact binary protocol (internal/wire
// framing) with read/write/call/browse/subscribe services.
//
// It stands in for the real OPC UA servers that front each machine in the
// paper's factory: the configuration generator emits server configs whose
// address spaces mirror the modeled machine variables and services, and the
// deployment simulator actually runs them.
package opcua

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/smartfactory/sysml2conf/internal/ring"
)

// NodeID identifies a node, e.g. "ns=1;s=EMCO/AxesPositions/actualX".
type NodeID string

// NewNodeID builds a string node id in namespace ns from path segments.
func NewNodeID(ns int, path ...string) NodeID {
	return NodeID(fmt.Sprintf("ns=%d;s=%s", ns, strings.Join(path, "/")))
}

// NodeClass is the OPC UA node class (subset).
type NodeClass int

const (
	// ClassObject groups other nodes.
	ClassObject NodeClass = iota
	// ClassVariable holds a value.
	ClassVariable
	// ClassMethod is callable.
	ClassMethod
)

func (c NodeClass) String() string {
	switch c {
	case ClassObject:
		return "Object"
	case ClassVariable:
		return "Variable"
	case ClassMethod:
		return "Method"
	}
	return "Unknown"
}

// Variant is a dynamically typed OPC UA value, JSON-encodable.
type Variant struct {
	Type  string          `json:"type"` // String, Double, Int64, Boolean, ...
	Value json.RawMessage `json:"value"`
}

// V builds a Variant from a Go value.
func V(v any) Variant {
	data, _ := json.Marshal(v)
	t := "Null"
	switch v.(type) {
	case string:
		t = "String"
	case bool:
		t = "Boolean"
	case int, int32, int64:
		t = "Int64"
	case float32, float64:
		t = "Double"
	case nil:
		t = "Null"
	default:
		t = "Json"
	}
	return Variant{Type: t, Value: data}
}

// AsString decodes a string variant (empty for other types).
func (v Variant) AsString() string {
	var s string
	_ = json.Unmarshal(v.Value, &s)
	return s
}

// AsFloat decodes a numeric variant.
func (v Variant) AsFloat() float64 {
	var f float64
	_ = json.Unmarshal(v.Value, &f)
	return f
}

// AsBool decodes a boolean variant.
func (v Variant) AsBool() bool {
	var b bool
	_ = json.Unmarshal(v.Value, &b)
	return b
}

// Equal reports deep equality of type and encoded value.
func (v Variant) Equal(o Variant) bool {
	return v.Type == o.Type && string(v.Value) == string(o.Value)
}

// MethodFunc is the server-side implementation of a method node.
type MethodFunc func(args []Variant) ([]Variant, error)

// Node is one entry of the address space. The *Node that AddVariable
// returns is also that variable's write handle (WriteRaw).
type Node struct {
	ID         NodeID
	BrowseName string
	Class      NodeClass
	DataType   string            // for variables
	Metadata   map[string]string // modeled metadata (category, description, ...)
	Parent     NodeID
	space      *AddressSpace // the space the node was added to
	children   []NodeID
	value      Variant
	method     MethodFunc
	monitors   []*monitoredItem // this node's monitored items; guarded by space.subMu
}

// NodeInfo is the wire-friendly description of a node.
type NodeInfo struct {
	ID         NodeID            `json:"id"`
	BrowseName string            `json:"browseName"`
	Class      string            `json:"class"`
	DataType   string            `json:"dataType,omitempty"`
	Metadata   map[string]string `json:"metadata,omitempty"`
	Children   []NodeID          `json:"children,omitempty"`
}

// AddressSpace is a concurrency-safe node store with change notification.
type AddressSpace struct {
	mu    sync.RWMutex
	nodes map[NodeID]*Node
	root  NodeID

	// Every monitored item is in two indexes kept in step under subMu: its
	// Monitor in monitors (by subscription id, for Unsubscribe) and its
	// node's own list (for notify, which therefore never looks at another
	// node's items).
	subMu    sync.Mutex
	nextSub  int
	monitors map[int]*Monitor
}

// Monitor is the server side of one subscribe request: a monitored item per
// listed node, each with its own drop-oldest queue and its own Seq, and one
// consumer for all of them. notify fills an item's queue and puts the item
// on the monitor's ready list; Next empties every ready item. An item's
// queue (internal/ring) holds nothing until its variable first changes and
// grows with the consumer's lag up to the depth given at subscription, so a
// plant's thousand quiet or keeping-up variables cost a header each, not a
// worst-case buffer each. Everything below items is guarded by the space's
// subMu — the lock notify already takes — growth included.
type Monitor struct {
	space *AddressSpace
	items []monitoredItem // in list order; IDs are consecutive
	readyList
}

// monitoredItem is one node of a Monitor.
type monitoredItem struct {
	itemQueue
	id   int
	node *Node
	mon  *Monitor
	seq  uint64 // per-item notification counter (gap = dropped sample)
}

// ID is the subscription id: the first item's, and the argument to
// Unsubscribe. The items are numbered consecutively from it in list order,
// and DataChange.SubID of every change an item reports is its number.
func (m *Monitor) ID() int { return m.items[0].id }

// Next appends to dst every queued change, oldest first per item, waiting
// for one if there is none. After Unsubscribe it hands out what was still
// queued and then reports ok = false (a consumer blocked in it is woken to
// do so). One goroutine at a time may call it.
func (m *Monitor) Next(dst []DataChange) ([]DataChange, bool) {
	for {
		n := len(dst)
		var closed bool
		dst, closed = m.take(dst)
		if len(dst) > n {
			return dst, true
		}
		if closed {
			return dst, false
		}
		<-m.wake
	}
}

// take is Next without the wait.
func (m *Monitor) take(dst []DataChange) (out []DataChange, closed bool) {
	m.space.subMu.Lock()
	defer m.space.subMu.Unlock()
	return m.readyList.take(dst), m.closed
}

// DataChange is one monitored-item notification. Seq numbers every
// notification of a monitored item consecutively from 1 — including those
// shed under backpressure — so a consumer can detect and count lost
// samples instead of missing them silently.
type DataChange struct {
	SubID  int     `json:"subId"`
	NodeID NodeID  `json:"nodeId"`
	Value  Variant `json:"value"`
	Seq    uint64  `json:"seq,omitempty"`
}

// NewAddressSpace creates a space with a root Objects folder.
func NewAddressSpace() *AddressSpace {
	s := &AddressSpace{
		nodes:    map[NodeID]*Node{},
		root:     NodeID("ns=0;s=Objects"),
		monitors: map[int]*Monitor{},
	}
	s.nodes[s.root] = &Node{ID: s.root, BrowseName: "Objects", Class: ClassObject}
	return s
}

// Root returns the root folder id.
func (s *AddressSpace) Root() NodeID { return s.root }

// AddObject creates an object node under parent.
func (s *AddressSpace) AddObject(parent NodeID, id NodeID, browseName string, meta map[string]string) (*Node, error) {
	return s.add(&Node{ID: id, BrowseName: browseName, Class: ClassObject, Metadata: meta, Parent: parent})
}

// AddVariable creates a variable node under parent with an initial value.
func (s *AddressSpace) AddVariable(parent NodeID, id NodeID, browseName, dataType string, initial Variant, meta map[string]string) (*Node, error) {
	return s.add(&Node{ID: id, BrowseName: browseName, Class: ClassVariable,
		DataType: dataType, value: initial, Metadata: meta, Parent: parent})
}

// AddMethod creates a callable method node under parent.
func (s *AddressSpace) AddMethod(parent NodeID, id NodeID, browseName string, fn MethodFunc, meta map[string]string) (*Node, error) {
	return s.add(&Node{ID: id, BrowseName: browseName, Class: ClassMethod,
		method: fn, Metadata: meta, Parent: parent})
}

func (s *AddressSpace) add(n *Node) (*Node, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.nodes[n.ID]; exists {
		return nil, fmt.Errorf("opcua: node %s already exists", n.ID)
	}
	parent, ok := s.nodes[n.Parent]
	if !ok {
		return nil, fmt.Errorf("opcua: parent %s of %s not found", n.Parent, n.ID)
	}
	n.space = s
	s.nodes[n.ID] = n
	parent.children = append(parent.children, n.ID)
	return n, nil
}

// Read returns a variable's current value.
func (s *AddressSpace) Read(id NodeID) (Variant, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.nodes[id]
	if !ok {
		return Variant{}, fmt.Errorf("opcua: node %s not found", id)
	}
	if n.Class != ClassVariable {
		return Variant{}, fmt.Errorf("opcua: node %s is a %s, not a Variable", id, n.Class)
	}
	return n.value, nil
}

// Write updates a variable's value and notifies monitors.
func (s *AddressSpace) Write(id NodeID, v Variant) error {
	s.mu.Lock()
	n, ok := s.nodes[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("opcua: node %s not found", id)
	}
	if n.Class != ClassVariable {
		s.mu.Unlock()
		return fmt.Errorf("opcua: node %s is a %s, not a Variable", id, n.Class)
	}
	changed := !n.value.Equal(v)
	n.value = v
	s.mu.Unlock()
	if changed {
		s.notify(n, v)
	}
	return nil
}

// WriteRaw updates a variable through its handle from raw, one JSON scalar
// as a device driver received it, and notifies the node's monitors if the
// value changed. It is Write(n.ID, V(decoded raw)) without the decode and
// re-encode, and stores the same variant whenever raw is json.Marshal's
// encoding of the scalar (what the machine protocol sends): the type
// follows from the first byte just as V types the decoded value (string,
// boolean, number as Double, null). The bytes are compared with the stored
// value before anything is copied, so writing an unchanged value costs one
// comparison and no allocation. raw may be reused by the caller afterwards.
func (n *Node) WriteRaw(raw []byte) error {
	if n.Class != ClassVariable {
		return fmt.Errorf("opcua: node %s is a %s, not a Variable", n.ID, n.Class)
	}
	var typ string
	switch {
	case len(raw) == 0:
		return fmt.Errorf("opcua: node %s: empty value", n.ID)
	case raw[0] == '"':
		typ = "String"
	case raw[0] == 't' || raw[0] == 'f':
		typ = "Boolean"
	case raw[0] == '-' || (raw[0] >= '0' && raw[0] <= '9'):
		typ = "Double"
	case raw[0] == 'n':
		typ = "Null"
	default:
		return fmt.Errorf("opcua: node %s: value %.16q is not a JSON scalar", n.ID, raw)
	}
	s := n.space
	s.mu.Lock()
	if n.value.Type == typ && bytes.Equal(n.value.Value, raw) {
		s.mu.Unlock()
		return nil
	}
	// A fresh copy, never an overwrite: queued notifications still hold
	// the previous value's bytes.
	v := Variant{Type: typ, Value: append(json.RawMessage(nil), raw...)}
	n.value = v
	s.mu.Unlock()
	s.notify(n, v)
	return nil
}

// Call invokes a method node.
func (s *AddressSpace) Call(id NodeID, args []Variant) ([]Variant, error) {
	s.mu.RLock()
	n, ok := s.nodes[id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("opcua: node %s not found", id)
	}
	if n.Class != ClassMethod || n.method == nil {
		return nil, fmt.Errorf("opcua: node %s is not callable", id)
	}
	return n.method(args)
}

// Browse returns the node's description including child ids.
func (s *AddressSpace) Browse(id NodeID) (NodeInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.nodes[id]
	if !ok {
		return NodeInfo{}, fmt.Errorf("opcua: node %s not found", id)
	}
	return n.info(), nil
}

func (n *Node) info() NodeInfo {
	children := append([]NodeID(nil), n.children...)
	return NodeInfo{ID: n.ID, BrowseName: n.BrowseName, Class: n.Class.String(),
		DataType: n.DataType, Metadata: n.Metadata, Children: children}
}

// AllNodes returns node infos sorted by id (diagnostics and tests).
func (s *AddressSpace) AllNodes() []NodeInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]NodeInfo, 0, len(s.nodes))
	for _, n := range s.nodes {
		out = append(out, n.info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CountByClass tallies nodes per class.
func (s *AddressSpace) CountByClass() (objects, variables, methods int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, n := range s.nodes {
		switch n.Class {
		case ClassObject:
			objects++
		case ClassVariable:
			variables++
		case ClassMethod:
			methods++
		}
	}
	return
}

// Subscribe is SubscribeNodes of one node.
func (s *AddressSpace) Subscribe(id NodeID, depth int) (*Monitor, error) {
	return s.SubscribeNodes([]NodeID{id}, depth)
}

// SubscribeNodes registers one monitored item per listed variable, all
// drained by the returned Monitor. Each item queues at most depth changes
// (the oldest is shed beyond that, and the gap shows in DataChange.Seq)
// until Unsubscribe. The list is taken whole or not at all: a node that is
// unknown or not a variable fails the call, names the node and registers
// nothing.
func (s *AddressSpace) SubscribeNodes(ids []NodeID, depth int) (*Monitor, error) {
	if len(ids) == 0 {
		return nil, errors.New("opcua: subscribe to no nodes")
	}
	if depth <= 0 {
		depth = 16
	}
	m := &Monitor{space: s, items: make([]monitoredItem, len(ids)), readyList: newReadyList()}
	s.mu.RLock()
	for i, id := range ids {
		n, ok := s.nodes[id]
		if !ok {
			s.mu.RUnlock()
			return nil, fmt.Errorf("opcua: node %s not found", id)
		}
		if n.Class != ClassVariable {
			s.mu.RUnlock()
			return nil, fmt.Errorf("opcua: cannot subscribe to %s node %s", n.Class, id)
		}
		m.items[i] = monitoredItem{itemQueue: itemQueue{queue: ring.Queue[DataChange]{Bound: depth}}, node: n, mon: m}
	}
	s.mu.RUnlock()
	s.subMu.Lock()
	defer s.subMu.Unlock()
	for i := range m.items {
		it := &m.items[i]
		s.nextSub++
		it.id = s.nextSub
		it.node.monitors = append(it.node.monitors, it)
	}
	s.monitors[m.ID()] = m
	return m, nil
}

// Unsubscribe removes a Monitor's items and ends its stream: Next drains
// what is queued, then reports the end.
func (s *AddressSpace) Unsubscribe(subID int) {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	m, ok := s.monitors[subID]
	if !ok {
		return
	}
	delete(s.monitors, subID)
	for i := range m.items {
		it := &m.items[i]
		if j := slices.Index(it.node.monitors, it); j >= 0 {
			it.node.monitors = slices.Delete(it.node.monitors, j, j+1)
		}
	}
	// Off both indexes, so notify cannot reach the items again and nothing
	// sends on wake after this close.
	m.end()
}

// notify delivers a changed value to the monitors of node n, and to no one
// else's.
func (s *AddressSpace) notify(n *Node, v Variant) {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	for _, it := range n.monitors {
		// Seq is consumed even when a notification is shed (a full queue
		// drops its oldest), so a consumer tracking consecutive numbers sees
		// the gap.
		it.seq++
		it.mon.push(&it.itemQueue, DataChange{SubID: it.id, NodeID: n.ID, Value: v, Seq: it.seq})
	}
}
