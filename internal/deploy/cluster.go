// Package deploy simulates the Kubernetes cluster that the generated
// configuration targets. Applying a manifest bundle schedules one pod per
// Deployment onto simulated nodes and actually starts the referenced
// component in-process: the message broker, the per-workcell OPC UA servers
// (connected to their machine emulators), the OPC UA client bridges and the
// historians. Deployment success is therefore observable end-to-end — data
// flows machine → driver → OPC UA → broker → historian, and machine
// services are callable — exactly the property the paper reports for the
// ICE Laboratory rollout.
package deploy

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/smartfactory/sysml2conf/internal/broker"
	"github.com/smartfactory/sysml2conf/internal/codegen"
	"github.com/smartfactory/sysml2conf/internal/faultinject"
	"github.com/smartfactory/sysml2conf/internal/historian"
	"github.com/smartfactory/sysml2conf/internal/k8s"
	"github.com/smartfactory/sysml2conf/internal/stack"
)

// Node is one simulated cluster node.
type Node struct {
	Name     string
	Capacity int // max pods
	pods     int
}

// PodPhase tracks a simulated pod's lifecycle.
type PodPhase string

// Pod phases (subset of the Kubernetes phases).
const (
	PodPending   PodPhase = "Pending"
	PodRunning   PodPhase = "Running"
	PodFailed    PodPhase = "Failed"
	PodSucceeded PodPhase = "Succeeded" // stopped cleanly by Shutdown
)

// Pod is one scheduled component instance.
type Pod struct {
	Name      string
	Namespace string
	Component string // message-broker, opcua-server, opcua-client, historian, monitor
	Node      string
	Phase     PodPhase
	Error     string
	Started   time.Time

	// Supervision state (maintained by the probe loops when the manifest
	// declares probes).
	Ready       bool
	ReadyReason string // last readiness failure ("" when ready)
	Restarts    int    // successful supervisor restarts
	CrashLoop   bool   // in CrashLoopBackOff (repeated restart failures)
}

// Cluster is the simulated cluster. Every broker pod runs a broker.Node:
// a plant generated with shards runs one per shard, and a one-broker plant
// runs its broker as shard 0 of 1, which owns every topic.
type Cluster struct {
	mu    sync.Mutex
	nodes []*Node
	pods  map[string]*podRecord // by pod name

	// MachineEndpoints resolves modeled driver endpoints to live machine
	// emulator addresses. Must be set before Apply when the bundle contains
	// OPC UA servers.
	MachineEndpoints stack.EndpointResolver

	// PollPeriod is the OPC UA servers' driver poll period (default 50ms).
	PollPeriod time.Duration

	// ProbeUnit maps one manifest "second" (periodSeconds and friends) to
	// simulated time (default 20ms), so a periodSeconds:5 probe fires every
	// 100ms in tests.
	ProbeUnit time.Duration

	// FaultInjector, when set before Apply, wraps the broker and OPC UA
	// server listeners so chaos rules and partitions apply to them. The
	// injector's component names are the broker Deployment's name without
	// its "message-" prefix ("broker" on a one-broker plant, "broker-s<i>"
	// per shard of a federated one), "opcua:<server>" and (for durable
	// historians) "disk:<historian>".
	FaultInjector *faultinject.Injector

	// DataDir, when set before Apply, makes historian pods durable: each
	// opens a WAL-backed store under DataDir/<name>, and a supervised
	// restart recovers its state from disk (snapshot + WAL replay) instead
	// of an in-memory handoff. Empty means volatile stores, each kept
	// across restarts in its pod record.
	DataDir string

	// queryServer, once started, serves the historian HTTP query API.
	// Historians register their stores on start and unregister on stop, so
	// supervised restarts (which re-open durable stores) re-resolve.
	queryServer *historian.QueryServer
	queryAddr   string

	events []Event
	down   bool // Shutdown ran; supervisors must not resurrect pods
}

// NewCluster creates a cluster with n nodes of the given pod capacity.
func NewCluster(n, capacity int) *Cluster {
	if n <= 0 {
		n = 3
	}
	if capacity <= 0 {
		capacity = 16
	}
	c := &Cluster{pods: map[string]*podRecord{}}
	for i := 0; i < n; i++ {
		c.nodes = append(c.nodes, &Node{Name: fmt.Sprintf("node-%d", i+1), Capacity: capacity})
	}
	return c
}

// schedule places a pod on the least-loaded node with spare capacity.
func (c *Cluster) schedule(pod *Pod) error {
	var best *Node
	for _, n := range c.nodes {
		if n.pods >= n.Capacity {
			continue
		}
		if best == nil || n.pods < best.pods {
			best = n
		}
	}
	if best == nil {
		return fmt.Errorf("deploy: no schedulable node for pod %s (all %d nodes full)", pod.Name, len(c.nodes))
	}
	best.pods++
	pod.Node = best.Name
	return nil
}

// ApplyBundle applies every manifest of a generated bundle. It reads the
// objects the generator decoded when it validated the bundle
// (codegen.Bundle.Objects) and parses no YAML itself; the objects are shared
// with the bundle and only ever read here.
func (c *Cluster) ApplyBundle(b *codegen.Bundle) error {
	return c.Apply(bundleObjects(b))
}

// bundleObjects are the objects of a bundle's manifests, in path order.
func bundleObjects(b *codegen.Bundle) []k8s.Object {
	var all []k8s.Object
	for _, f := range b.AllFiles() {
		if strings.HasPrefix(f.Name, "manifests/") {
			all = append(all, b.Objects(f.Name)...)
		}
	}
	return all
}

// Apply schedules and starts the components described by the objects, in
// the kind table's order: broker, historians, monitors, OPC UA servers,
// clients. It adds to what runs: it plans from no pods to the objects, and
// a Deployment that already has a pod is refused when its turn comes.
func (c *Cluster) Apply(objs []k8s.Object) error {
	if err := k8s.Validate(objs); err != nil {
		return err
	}
	t, err := plan(nil, objs)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.down = false // a fresh Apply revives a previously drained cluster
	c.mu.Unlock()
	_, err = c.run(t, false)
	return err
}

func componentOf(o k8s.Object) string { return o.Labels()["factory.io/component"] }

// start schedules a new pod record, records its broker dependencies and
// starts its component.
func (c *Cluster) start(p *podRecord) error {
	c.mu.Lock()
	if _, exists := c.pods[p.status.Name]; exists {
		c.mu.Unlock()
		return fmt.Errorf("deploy: pod %s already exists (Deployment %s applied twice)", p.status.Name, p.name())
	}
	if err := c.schedule(&p.status); err != nil {
		c.mu.Unlock()
		return err
	}
	p.dependOnBrokers(c.pods)
	c.pods[p.status.Name] = p
	c.mu.Unlock()

	if err := c.startPod(p); err != nil {
		c.mu.Lock()
		p.status.Phase = PodFailed
		p.status.Error = err.Error()
		c.mu.Unlock()
		return err
	}

	c.mu.Lock()
	p.status.Phase = PodRunning
	p.status.Ready = true
	p.status.Started = time.Now()
	c.mu.Unlock()
	c.recordEvent(p.status.Name, EventStarted, p.status.Component+" started")
	if pol := p.deploy.PodPolicy(); pol.Liveness != nil || pol.Readiness != nil {
		c.startSupervisor(p, pol)
	}
	return nil
}

// running returns the component of Deployment name if it runs and is a T.
func running[T component](c *Cluster, name string) T {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t T
	if p := c.pods[name+"-0"]; p != nil {
		t, _ = p.comp.(T)
	}
	return t
}

// runningAll returns every running component that is a T, with its
// Deployment name.
func runningAll[T component](c *Cluster) map[string]T {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[string]T{}
	for _, p := range c.pods {
		if t, ok := p.comp.(T); ok {
			out[p.name()] = t
		}
	}
	return out
}

// BrokerShardAddr returns the live address of one broker shard ("" plus
// an error while that node is down). A one-broker plant's broker is shard 0.
func (c *Cluster) BrokerShardAddr(shard int) (string, error) {
	for _, n := range c.brokerNodes() {
		if n.Shard() == shard {
			if addr := n.Addr(); addr != "" {
				return addr, nil
			}
		}
	}
	return "", fmt.Errorf("deploy: broker shard %d is not running", shard)
}

func (c *Cluster) resolveServer(server string) (string, error) {
	if s := running[*stack.MachineServer](c, server); s != nil {
		return s.Addr(), nil
	}
	return "", fmt.Errorf("deploy: OPC UA server %q is not running", server)
}

// Pods returns pod statuses sorted by name.
func (c *Cluster) Pods() []Pod {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Pod, 0, len(c.pods))
	for _, p := range c.pods {
		out = append(out, p.status)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AllRunning reports whether every pod reached Running.
func (c *Cluster) AllRunning() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.pods) == 0 {
		return false
	}
	for _, p := range c.pods {
		if p.status.Phase != PodRunning {
			return false
		}
	}
	return true
}

// BrokerAddr returns the lowest-numbered live broker shard's address (""
// if none is up): a one-broker plant's only broker, and on a federated
// plant a node that accepts publishes and forwards them to their owners,
// so callers that need just some broker (the factorysim orchestrator)
// need not know the shard count.
func (c *Cluster) BrokerAddr() string {
	for _, n := range c.brokerNodes() {
		if addr := n.Addr(); addr != "" {
			return addr
		}
	}
	return ""
}

// brokerNodes snapshots the live broker nodes, sorted by shard.
func (c *Cluster) brokerNodes() []*broker.Node {
	var out []*broker.Node
	for _, n := range runningAll[*broker.Node](c) {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Shard() < out[j].Shard() })
	return out
}

// BrokerShardStats returns the counters of every live broker node, sorted
// by shard; a one-broker plant reports its broker as shard 0.
func (c *Cluster) BrokerShardStats() []broker.NodeStats {
	nodes := c.brokerNodes()
	out := make([]broker.NodeStats, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, n.NodeStats())
	}
	return out
}

// BrokerStats returns the broker tier's counters summed over every live
// node (all zero if no broker pod is up). Dropped counts messages shed by
// subscriber rings, the loss signal chaos soaks and factorysim report;
// Refused counts messages an acked session refused, which a healthy plant
// keeps at zero.
func (c *Cluster) BrokerStats() broker.Stats {
	var sum broker.Stats
	for _, n := range c.brokerNodes() {
		st := n.Broker.Stats()
		sum.Published += st.Published
		sum.Delivered += st.Delivered
		sum.Dropped += st.Dropped
		sum.Redelivered += st.Redelivered
		sum.Refused += st.Refused
		sum.Subscriptions += st.Subscriptions
	}
	return sum
}

// StartQueryServer starts the historian HTTP query API on addr (":0" for
// an ephemeral port) and registers every running historian's store. It
// returns the bound address. Historians started or restarted afterwards
// register themselves; stopped ones unregister. Idempotent — a second call
// returns the already-bound address.
func (c *Cluster) StartQueryServer(addr string) (string, error) {
	c.mu.Lock()
	if c.queryServer != nil {
		bound := c.queryAddr
		c.mu.Unlock()
		return bound, nil
	}
	qs := historian.NewQueryServer()
	c.queryServer = qs
	// Register while still holding c.mu (Register only takes the query
	// server's own lock): a historian stopped concurrently either sees
	// c.queryServer already set and Unregisters after us, or is gone from
	// its record before we look — never re-registered stale.
	for _, p := range c.pods {
		if h, ok := p.comp.(*historian.Service); ok {
			qs.Register(p.name(), h.Store)
		}
	}
	c.mu.Unlock()

	bound, err := qs.Serve(addr)
	if err != nil {
		c.mu.Lock()
		c.queryServer = nil
		c.mu.Unlock()
		return "", err
	}
	c.mu.Lock()
	c.queryAddr = bound
	c.mu.Unlock()
	return bound, nil
}

// QueryServer returns the running query server, or nil if StartQueryServer
// was never called.
func (c *Cluster) QueryServer() *historian.QueryServer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queryServer
}

// QueryAddr returns the query API's bound address ("" until started).
func (c *Cluster) QueryAddr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queryAddr
}

// Historian returns a running historian service by name, or nil.
func (c *Cluster) Historian(name string) *historian.Service {
	return running[*historian.Service](c, name)
}

// Historians lists running historian names, sorted.
func (c *Cluster) Historians() []string {
	var out []string
	for name := range runningAll[*historian.Service](c) {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Server returns a running OPC UA server component by name, or nil.
func (c *Cluster) Server(name string) *stack.MachineServer {
	return running[*stack.MachineServer](c, name)
}

// Monitor returns a running workcell monitor by name, or nil.
func (c *Cluster) Monitor(name string) *stack.WorkcellMonitor {
	return running[*stack.WorkcellMonitor](c, name)
}

// Shutdown drains the cluster: supervisors stop first (so nothing gets
// resurrected mid-teardown), then the query front end, then every pod in the
// stop order of the plan to nothing — clients, servers, monitors,
// historians, broker tier — so no component observes a dependency vanishing
// while it is still doing work. The records stay, marked Succeeded.
// Shutdown is idempotent; a second call is a no-op.
func (c *Cluster) Shutdown() {
	c.mu.Lock()
	if c.down {
		c.mu.Unlock()
		return
	}
	c.down = true
	t, _ := plan(c.pods, nil) // nothing desired: no object to refuse
	c.mu.Unlock()
	c.haltSupervisors(t.stop...)

	c.mu.Lock()
	qs := c.queryServer
	c.queryServer = nil
	c.queryAddr = ""
	c.mu.Unlock()
	if qs != nil {
		qs.Close()
	}
	c.run(t, true)
}
