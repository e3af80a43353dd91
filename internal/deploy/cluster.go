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
	"encoding/json"
	"fmt"
	"net"
	"path/filepath"
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
	"github.com/smartfactory/sysml2conf/internal/wal"
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

// Cluster is the simulated cluster.
type Cluster struct {
	mu    sync.Mutex
	nodes []*Node
	pods  map[string]*Pod

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
	// injector's component names are "broker", "opcua:<server>" and (for
	// durable historians) "disk:<historian>".
	FaultInjector *faultinject.Injector

	// DataDir, when set before Apply, makes historian pods durable: each
	// opens a WAL-backed store under DataDir/<name>, and a supervised
	// restart recovers its state from disk (snapshot + WAL replay) instead
	// of an in-memory handoff. Empty means volatile stores, kept across
	// restarts via historianStores.
	DataDir string

	broker     *broker.Broker
	brokerAddr string
	// Federated plants run one broker.Node per shard instead of the
	// singleton above: brokers is keyed by deployment name
	// ("message-broker-s<i>"), brokerAddrs by shard index (the map nodes
	// and components resolve each other through, refreshed on restart).
	brokers     map[string]*broker.Node
	brokerAddrs map[int]string
	servers     map[string]*stack.MachineServer
	serverAddrs map[string]string
	clients     map[string]*stack.BridgeClient
	historians  map[string]*historian.Service
	monitors    map[string]*stack.WorkcellMonitor

	// historianStores survive historian restarts so a supervised bounce
	// does not lose accumulated time-series data.
	historianStores map[string]*historian.Store

	// queryServer, once started, serves the historian HTTP query API.
	// Historians register their stores on start and unregister on stop, so
	// supervised restarts (which re-open durable stores) re-resolve.
	queryServer *historian.QueryServer
	queryAddr   string

	runtimes map[string]*podRuntime // pod name -> supervision runtime
	events   []Event
	down     bool // Shutdown ran; supervisors must not resurrect pods
}

// NewCluster creates a cluster with n nodes of the given pod capacity.
func NewCluster(n, capacity int) *Cluster {
	if n <= 0 {
		n = 3
	}
	if capacity <= 0 {
		capacity = 16
	}
	c := &Cluster{
		pods:            map[string]*Pod{},
		brokers:         map[string]*broker.Node{},
		brokerAddrs:     map[int]string{},
		servers:         map[string]*stack.MachineServer{},
		serverAddrs:     map[string]string{},
		clients:         map[string]*stack.BridgeClient{},
		historians:      map[string]*historian.Service{},
		monitors:        map[string]*stack.WorkcellMonitor{},
		historianStores: map[string]*historian.Store{},
		runtimes:        map[string]*podRuntime{},
	}
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

// ApplyBundle applies every manifest of a generated bundle, in path order.
// It reads the objects the generator decoded when it validated the bundle
// (codegen.Bundle.Objects) and parses no YAML itself; the objects are shared
// with the bundle and only ever read here.
func (c *Cluster) ApplyBundle(b *codegen.Bundle) error {
	var all []k8s.Object
	for _, f := range b.AllFiles() {
		if strings.HasPrefix(f.Name, "manifests/") {
			all = append(all, b.Objects(f.Name)...)
		}
	}
	return c.Apply(all)
}

// Apply schedules and starts the components described by the objects.
// ConfigMaps are indexed first; Deployments start in dependency order:
// broker, then OPC UA servers, then clients and historians.
func (c *Cluster) Apply(objs []k8s.Object) error {
	if err := k8s.Validate(objs); err != nil {
		return err
	}
	c.mu.Lock()
	c.down = false // a fresh Apply revives a previously drained cluster
	c.mu.Unlock()
	configMaps := map[string]k8s.Object{}
	var deployments []k8s.Object
	for _, o := range objs {
		switch o.Kind() {
		case "ConfigMap":
			configMaps[o.Namespace()+"/"+o.Name()] = o
		case "Deployment":
			deployments = append(deployments, o)
		case "Namespace", "Service":
			// Namespaces are implicit; Services resolve via serverAddrs.
		default:
			return fmt.Errorf("deploy: unsupported kind %q (%s)", o.Kind(), o.Name())
		}
	}
	sort.SliceStable(deployments, func(i, j int) bool {
		return componentRank(deployments[i]) < componentRank(deployments[j])
	})
	for _, d := range deployments {
		if err := c.startDeployment(d, configMaps); err != nil {
			return err
		}
	}
	return nil
}

func componentOf(o k8s.Object) string {
	if comp := o.Labels()["factory.io/component"]; comp != "" {
		return comp
	}
	if o.Labels()["app"] == "message-broker" {
		return "message-broker"
	}
	return ""
}

func componentRank(o k8s.Object) int {
	switch componentOf(o) {
	case "message-broker":
		return 0
	case "opcua-server":
		return 1
	case "opcua-client":
		return 2
	case "historian":
		return 3
	case "monitor":
		return 4
	}
	return 5
}

func (c *Cluster) startDeployment(o k8s.Object, configMaps map[string]k8s.Object) error {
	pod := &Pod{
		Name:      o.Name() + "-0",
		Namespace: o.Namespace(),
		Component: componentOf(o),
		Phase:     PodPending,
	}
	c.mu.Lock()
	if _, exists := c.pods[pod.Name]; exists {
		c.mu.Unlock()
		return fmt.Errorf("deploy: pod %s already exists (Deployment %s applied twice)", pod.Name, o.Name())
	}
	if err := c.schedule(pod); err != nil {
		c.mu.Unlock()
		return err
	}
	c.pods[pod.Name] = pod
	c.mu.Unlock()

	if err := c.startComponent(pod.Component, o, configMaps); err != nil {
		c.mu.Lock()
		pod.Phase = PodFailed
		pod.Error = err.Error()
		c.mu.Unlock()
		return err
	}

	c.mu.Lock()
	pod.Phase = PodRunning
	pod.Ready = true
	pod.Started = time.Now()
	c.mu.Unlock()
	c.recordEvent(pod.Name, EventStarted, pod.Component+" started")
	if pol := o.PodPolicy(); pol.Liveness != nil || pol.Readiness != nil {
		c.startSupervisor(pod, o, pol, configMaps)
	}
	return nil
}

// startComponent (re)creates and starts the component behind a Deployment,
// registering it in the cluster's component maps. It is called both on
// first apply and on every supervised restart — broker address and server
// endpoints are read fresh each time, so a restarted broker cascades new
// addresses to the components restarted after it.
func (c *Cluster) startComponent(component string, o k8s.Object, configMaps map[string]k8s.Object) error {
	cfg := func(key string) ([]byte, error) {
		cm, ok := configMaps[o.Namespace()+"/"+o.Name()+"-config"]
		if !ok {
			return nil, fmt.Errorf("deploy: ConfigMap %s-config not found", o.Name())
		}
		data, ok := cm.ConfigData()[key]
		if !ok {
			return nil, fmt.Errorf("deploy: ConfigMap %s-config lacks key %s", o.Name(), key)
		}
		return []byte(data), nil
	}

	switch component {
	case "message-broker":
		// A broker.json ConfigMap marks a federated broker node; the
		// singleton broker deployment has no ConfigMap at all.
		if _, ok := configMaps[o.Namespace()+"/"+o.Name()+"-config"]; ok {
			raw, err := cfg("broker.json")
			if err != nil {
				return err
			}
			var bc codegen.BrokerShardConfig
			if err := json.Unmarshal(raw, &bc); err != nil {
				return fmt.Errorf("deploy: bad broker.json for %s: %w", o.Name(), err)
			}
			return c.startBrokerNode(o.Name(), bc)
		}
		b := broker.New()
		if inj := c.FaultInjector; inj != nil {
			b.ListenWrapper = func(ln net.Listener) net.Listener {
				return inj.Wrap("broker", ln)
			}
		}
		if err := b.Serve("127.0.0.1:0"); err != nil {
			return err
		}
		c.mu.Lock()
		c.broker = b
		c.brokerAddr = b.Addr()
		c.mu.Unlock()

	case "opcua-server":
		raw, err := cfg("server.json")
		if err != nil {
			return err
		}
		var sc codegen.ServerConfig
		if err := json.Unmarshal(raw, &sc); err != nil {
			return fmt.Errorf("deploy: bad server.json for %s: %w", o.Name(), err)
		}
		var machines []codegen.MachineConfig
		for _, name := range sc.Machines {
			mraw, err := cfg("machine-" + name + ".json")
			if err != nil {
				return err
			}
			var mc codegen.MachineConfig
			if err := json.Unmarshal(mraw, &mc); err != nil {
				return fmt.Errorf("deploy: bad machine config %s: %w", name, err)
			}
			machines = append(machines, mc)
		}
		resolver := c.MachineEndpoints
		if resolver == nil {
			resolver = stack.IdentityResolver
		}
		srv := stack.NewMachineServer(sc, machines, resolver, c.PollPeriod)
		if inj := c.FaultInjector; inj != nil {
			name := sc.Name
			srv.ListenWrapper = func(ln net.Listener) net.Listener {
				return inj.Wrap("opcua:"+name, ln)
			}
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			return err
		}
		c.mu.Lock()
		c.servers[sc.Name] = srv
		c.serverAddrs[sc.Name] = srv.Addr()
		c.mu.Unlock()

	case "opcua-client":
		raw, err := cfg("client.json")
		if err != nil {
			return err
		}
		var cc codegen.ClientConfig
		if err := json.Unmarshal(raw, &cc); err != nil {
			return fmt.Errorf("deploy: bad client.json for %s: %w", o.Name(), err)
		}
		brokerAddr, err := c.brokerAddrFor(cc.Shard)
		if err != nil {
			return fmt.Errorf("deploy: client %s started before the broker: %w", cc.Name, err)
		}
		client := stack.NewBridgeClient(cc, c.resolveServer, brokerAddr)
		if err := client.Start(); err != nil {
			return err
		}
		c.mu.Lock()
		c.clients[cc.Name] = client
		c.mu.Unlock()

	case "historian":
		raw, err := cfg("storage.json")
		if err != nil {
			return err
		}
		var sc codegen.StorageConfig
		if err := json.Unmarshal(raw, &sc); err != nil {
			return fmt.Errorf("deploy: bad storage.json for %s: %w", o.Name(), err)
		}
		brokerAddr, err := c.brokerAddrFor(sc.Shard)
		if err != nil {
			return fmt.Errorf("deploy: historian %s started before the broker: %w", sc.Name, err)
		}
		c.mu.Lock()
		store := c.historianStores[sc.Name]
		dataDir := c.DataDir
		c.mu.Unlock()
		if dataDir != "" {
			// Durable mode: every restart goes through the crash-recovery
			// path — open snapshot + WAL, replay, resubscribe from the
			// recovered session high-water marks.
			opts := historian.DurableOptions{MaxPerSeries: sc.Retention}
			if inj := c.FaultInjector; inj != nil {
				opts.FS = inj.WrapFS("disk:"+sc.Name, wal.OS)
			}
			svc, err := historian.NewDurableService(brokerAddr, sc.Name, sc.Topics,
				filepath.Join(dataDir, sc.Name), opts)
			if err != nil {
				return err
			}
			c.mu.Lock()
			c.historians[sc.Name] = svc
			qs := c.queryServer
			c.mu.Unlock()
			if qs != nil {
				qs.Register(sc.Name, svc.Store)
			}
			return nil
		}
		if store == nil {
			store = historian.NewStore(sc.Retention)
		}
		svc, err := historian.NewAckedService(brokerAddr, sc.Name, sc.Topics, store)
		if err != nil {
			return err
		}
		c.mu.Lock()
		c.historians[sc.Name] = svc
		c.historianStores[sc.Name] = store
		qs := c.queryServer
		c.mu.Unlock()
		if qs != nil {
			qs.Register(sc.Name, store)
		}

	case "monitor":
		raw, err := cfg("monitor.json")
		if err != nil {
			return err
		}
		var mc codegen.MonitorConfig
		if err := json.Unmarshal(raw, &mc); err != nil {
			return fmt.Errorf("deploy: bad monitor.json for %s: %w", o.Name(), err)
		}
		brokerAddr, err := c.brokerAddrFor(mc.Shard)
		if err != nil {
			return fmt.Errorf("deploy: monitor %s started before the broker: %w", mc.Name, err)
		}
		mon := stack.NewWorkcellMonitor(mc, brokerAddr)
		if err := mon.Start(); err != nil {
			return err
		}
		c.mu.Lock()
		c.monitors[mc.Name] = mon
		c.mu.Unlock()

	default:
		return fmt.Errorf("deploy: deployment %s has no recognized component label", o.Name())
	}
	return nil
}

// startBrokerNode starts one federated broker shard: a broker.Node that
// forwards non-owned publishes to owner shards and pulls remote-owned
// subscriptions over acked bridge links. Addresses resolve through the
// cluster's live brokerAddrs map, so a restarted peer's new port is
// found on the next (re)dial.
func (c *Cluster) startBrokerNode(name string, bc codegen.BrokerShardConfig) error {
	opts := broker.NodeOptions{
		Workcells: bc.Workcells,
		Resolve:   c.BrokerShardAddr,
	}
	if inj := c.FaultInjector; inj != nil {
		opts.Dial = func(link, addr string) (net.Conn, error) {
			return inj.Dial(link, addr, 2*time.Second)
		}
	}
	n := broker.NewNode(bc.Shard, bc.Shards, opts)
	if inj := c.FaultInjector; inj != nil {
		injName := fmt.Sprintf("broker-s%d", bc.Shard)
		n.Broker.ListenWrapper = func(ln net.Listener) net.Listener {
			return inj.Wrap(injName, ln)
		}
	}
	if err := n.Serve("127.0.0.1:0"); err != nil {
		n.Close()
		return err
	}
	c.mu.Lock()
	c.brokers[name] = n
	c.brokerAddrs[bc.Shard] = n.Addr()
	c.mu.Unlock()
	return nil
}

// brokerAddrFor resolves the broker address a component dials: its
// shard's node in a federated cluster, the singleton broker otherwise.
func (c *Cluster) brokerAddrFor(shard int) (string, error) {
	c.mu.Lock()
	federated := len(c.brokers) > 0
	addr := c.brokerAddrs[shard]
	legacy := c.brokerAddr
	c.mu.Unlock()
	if federated {
		if addr == "" {
			return "", fmt.Errorf("broker shard %d is not running", shard)
		}
		return addr, nil
	}
	if legacy == "" {
		return "", fmt.Errorf("no broker is running")
	}
	return legacy, nil
}

// BrokerShardAddr returns the live address of one broker shard of a
// federated cluster ("" plus an error while that node is down).
func (c *Cluster) BrokerShardAddr(shard int) (string, error) {
	c.mu.Lock()
	addr := c.brokerAddrs[shard]
	c.mu.Unlock()
	if addr == "" {
		return "", fmt.Errorf("deploy: broker shard %d is not running", shard)
	}
	return addr, nil
}

// stopComponent tears down the component behind a Deployment without
// touching pod bookkeeping (the supervisor uses it mid-restart, KillPod
// uses it to simulate a crash).
func (c *Cluster) stopComponent(component, name string) {
	switch component {
	case "message-broker":
		c.mu.Lock()
		if n := c.brokers[name]; n != nil {
			delete(c.brokers, name)
			delete(c.brokerAddrs, n.Shard())
			c.mu.Unlock()
			n.Close()
			return
		}
		b := c.broker
		c.broker = nil
		c.brokerAddr = ""
		c.mu.Unlock()
		if b != nil {
			b.Close()
		}
	case "opcua-server":
		c.mu.Lock()
		srv := c.servers[name]
		delete(c.servers, name)
		delete(c.serverAddrs, name)
		c.mu.Unlock()
		if srv != nil {
			srv.Stop()
		}
	case "opcua-client":
		c.mu.Lock()
		cl := c.clients[name]
		delete(c.clients, name)
		c.mu.Unlock()
		if cl != nil {
			cl.Stop()
		}
	case "historian":
		c.mu.Lock()
		h := c.historians[name]
		delete(c.historians, name)
		qs := c.queryServer
		c.mu.Unlock()
		if qs != nil {
			qs.Unregister(name)
		}
		if h != nil {
			h.Close()
		}
	case "monitor":
		c.mu.Lock()
		mon := c.monitors[name]
		delete(c.monitors, name)
		c.mu.Unlock()
		if mon != nil {
			mon.Stop()
		}
	}
}

func (c *Cluster) resolveServer(server string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	addr, ok := c.serverAddrs[server]
	if !ok {
		return "", fmt.Errorf("deploy: OPC UA server %q is not running", server)
	}
	return addr, nil
}

// Pods returns pod statuses sorted by name.
func (c *Cluster) Pods() []Pod {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Pod, 0, len(c.pods))
	for _, p := range c.pods {
		out = append(out, *p)
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
		if p.Phase != PodRunning {
			return false
		}
	}
	return true
}

// BrokerAddr returns the running broker's address ("" if absent). On a
// federated cluster it returns the lowest-numbered live shard — any node
// accepts publishes and forwards them to their owners, so this keeps
// single-broker callers (the factorysim orchestrator, older tests)
// working unchanged.
func (c *Cluster) BrokerAddr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.brokerAddr != "" {
		return c.brokerAddr
	}
	best := -1
	for shard := range c.brokerAddrs {
		if best < 0 || shard < best {
			best = shard
		}
	}
	if best < 0 {
		return ""
	}
	return c.brokerAddrs[best]
}

// brokerNodes snapshots the live federated nodes (empty on single-broker
// clusters).
func (c *Cluster) brokerNodes() []*broker.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*broker.Node, 0, len(c.brokers))
	for _, n := range c.brokers {
		out = append(out, n)
	}
	return out
}

// BrokerStats returns the broker tier's lifetime counters (all zero if no
// broker pod is up), summed across every node of a federated cluster.
// dropped counts messages shed by subscriber ring buffers — the loss
// signal chaos soaks and the factorysim monitor report.
func (c *Cluster) BrokerStats() (published, delivered, dropped uint64, subscriptions int) {
	c.mu.Lock()
	b := c.broker
	c.mu.Unlock()
	if b != nil {
		return b.Stats()
	}
	for _, n := range c.brokerNodes() {
		p, d, dr, s := n.Broker.Stats()
		published += p
		delivered += d
		dropped += dr
		subscriptions += s
	}
	return published, delivered, dropped, subscriptions
}

// BrokerAckStats returns the broker tier's acked-delivery counters,
// summed across every node of a federated cluster: redelivered is
// retries of unacked messages (benign — consumers dedup), refused is
// messages rejected because a session's backlog was full (real loss; a
// healthy deployment keeps this at zero).
func (c *Cluster) BrokerAckStats() (redelivered, refused uint64) {
	c.mu.Lock()
	b := c.broker
	c.mu.Unlock()
	if b != nil {
		return b.AckStats()
	}
	for _, n := range c.brokerNodes() {
		rd, rf := n.Broker.AckStats()
		redelivered += rd
		refused += rf
	}
	return redelivered, refused
}

// ShardBrokerStats is one federated broker node's breakdown: the core
// pub/sub and acked-delivery counters plus the federation traffic
// counters (forwards out, bridged messages in, deduped redeliveries,
// link reconnects) and the pipelined-window gauges (forward in-flight
// depth, window stalls, replayed forwards, bridge in-flight depth) the
// embedded NodeStats carries — factorysim prints them per shard as
// fwdWindow=inflight/stalls/replayed and bridgeInFlight.
type ShardBrokerStats struct {
	broker.NodeStats
	Published     uint64
	Delivered     uint64
	Dropped       uint64
	Subscriptions int
	Redelivered   uint64
	Refused       uint64
}

// BrokerShardStats returns per-shard broker counters sorted by shard
// (empty on single-broker clusters).
func (c *Cluster) BrokerShardStats() []ShardBrokerStats {
	nodes := c.brokerNodes()
	out := make([]ShardBrokerStats, 0, len(nodes))
	for _, n := range nodes {
		s := ShardBrokerStats{NodeStats: n.NodeStats()}
		s.Published, s.Delivered, s.Dropped, s.Subscriptions = n.Broker.Stats()
		s.Redelivered, s.Refused = n.Broker.AckStats()
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Shard < out[j].Shard })
	return out
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
	// c.historians before we snapshot it — never re-registered stale.
	for name, h := range c.historians {
		qs.Register(name, h.Store)
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
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.historians[name]
}

// Historians lists running historian names, sorted.
func (c *Cluster) Historians() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for name := range c.historians {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Server returns a running OPC UA server component by name, or nil.
func (c *Cluster) Server(name string) *stack.MachineServer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.servers[name]
}

// Client returns a running bridge client by name, or nil.
func (c *Cluster) Client(name string) *stack.BridgeClient {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clients[name]
}

// Monitor returns a running workcell monitor by name, or nil.
func (c *Cluster) Monitor(name string) *stack.WorkcellMonitor {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.monitors[name]
}

// NodeLoads returns pod counts per node (diagnostics and tests).
func (c *Cluster) NodeLoads() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[string]int{}
	for _, n := range c.nodes {
		out[n.Name] = n.pods
	}
	return out
}

// Shutdown drains the cluster: supervisors stop first (so nothing gets
// resurrected mid-teardown), then components stop in reverse data-flow
// order — clients, servers, monitors, historians, broker — so no component
// observes a dependency vanishing while it is still doing work. Shutdown is
// idempotent; a second call is a no-op.
func (c *Cluster) Shutdown() {
	c.mu.Lock()
	if c.down {
		c.mu.Unlock()
		return
	}
	c.down = true
	runtimes := c.runtimes
	c.runtimes = map[string]*podRuntime{}
	c.mu.Unlock()

	// 1. Stop every supervisor and wait for its probe loop to exit.
	for _, rt := range runtimes {
		rt.halt()
	}
	for _, rt := range runtimes {
		<-rt.done
	}

	c.mu.Lock()
	clients := c.clients
	servers := c.servers
	historians := c.historians
	monitors := c.monitors
	b := c.broker
	nodes := c.brokers
	qs := c.queryServer
	c.queryServer = nil
	c.queryAddr = ""
	c.clients = map[string]*stack.BridgeClient{}
	c.servers = map[string]*stack.MachineServer{}
	c.historians = map[string]*historian.Service{}
	c.monitors = map[string]*stack.WorkcellMonitor{}
	c.broker = nil
	c.brokerAddr = ""
	c.brokers = map[string]*broker.Node{}
	c.brokerAddrs = map[int]string{}
	c.mu.Unlock()

	// 2. Components in order: query front end → clients → servers →
	// monitors → historians → broker tier.
	if qs != nil {
		qs.Close()
	}
	for _, cl := range clients {
		cl.Stop()
	}
	for _, s := range servers {
		s.Stop()
	}
	for _, mo := range monitors {
		mo.Stop()
	}
	for _, h := range historians {
		h.Close()
	}
	if b != nil {
		b.Close()
	}
	for _, n := range nodes {
		n.Close()
	}

	c.mu.Lock()
	for _, p := range c.pods {
		if p.Phase == PodRunning || p.Phase == PodPending {
			p.Phase = PodSucceeded
		}
		p.Ready = false
		p.ReadyReason = "cluster shut down"
	}
	c.mu.Unlock()
}
