package deploy

import (
	"encoding/json"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"time"

	"github.com/smartfactory/sysml2conf/internal/broker"
	"github.com/smartfactory/sysml2conf/internal/codegen"
	"github.com/smartfactory/sysml2conf/internal/historian"
	"github.com/smartfactory/sysml2conf/internal/k8s"
	"github.com/smartfactory/sysml2conf/internal/stack"
	"github.com/smartfactory/sysml2conf/internal/wal"
)

// component is what a pod runs: a broker.Node, a stack.MachineServer, a
// stack.BridgeClient, a historian.Service or a stack.WorkcellMonitor.
// Servers and clients also implement readier; for the other kinds
// readiness is liveness.
type component interface {
	Health() error
	Stop()
}

type readier interface {
	Ready() error
}

// podRecord is the cluster's one record of a scheduled Deployment.
type podRecord struct {
	status     Pod
	kind       kind
	deploy     k8s.Object
	configMaps map[string]k8s.Object // read again by every restart

	rt   *podRuntime // nil when the manifest declares no probes
	comp component   // nil while the pod is killed or restarting

	// deps are the Deployments whose restart restarts this pod, recorded
	// when it starts: every broker shard for a kind that holds a broker
	// connection, and a client's OPC UA servers.
	deps map[string]bool

	// store is a volatile historian's store: it outlives the historian's
	// restarts and goes with the record when the pod is removed.
	store *historian.Store
}

// kind is one row of the kind table.
type kind struct {
	order    int  // starts go up this order and stops go down it
	onBroker bool // holds a broker connection, so restarts with the broker
	start    func(c *Cluster, p *podRecord) (component, error)
}

// kinds is the kind table, keyed by component label. The order puts
// consumers before producers: after the broker, historians and monitors
// subscribe before the clients publish, and a client starts after the
// broker and its servers. Stops run the other way: clients, servers,
// monitors, historians, the broker tier.
var kinds = map[string]kind{
	"message-broker": {order: 0, start: startBroker},
	"historian":      {order: 1, onBroker: true, start: startHistorian},
	"monitor":        {order: 2, onBroker: true, start: startMonitor},
	"opcua-server":   {order: 3, start: startServer},
	"opcua-client":   {order: 4, onBroker: true, start: startClient},
}

// newRecord is the record of a Deployment that is not scheduled yet. A
// Deployment of no known kind has the zero kind, whose start fails.
func newRecord(o k8s.Object, configMaps map[string]k8s.Object) *podRecord {
	comp := componentOf(o)
	return &podRecord{
		status:     Pod{Name: o.Name() + "-0", Namespace: o.Namespace(), Component: comp, Phase: PodPending},
		kind:       kinds[comp],
		deploy:     o,
		configMaps: configMaps,
		deps:       map[string]bool{},
	}
}

// dependOnBrokers records every broker shard among pods as a dependency of
// a kind that holds a broker connection.
func (p *podRecord) dependOnBrokers(pods map[string]*podRecord) {
	if !p.kind.onBroker {
		return
	}
	for _, q := range pods {
		if q.status.Component == "message-broker" {
			p.deps[q.name()] = true
		}
	}
}

// byOrder is the plant's one order: ascending is the start order and
// descending the stop order; pods of one kind go by name.
func byOrder(a, b *podRecord) int {
	if a.kind.order != b.kind.order {
		return a.kind.order - b.kind.order
	}
	return strings.Compare(a.status.Name, b.status.Name)
}

func (p *podRecord) name() string { return p.deploy.Name() }

func (p *podRecord) configMap() (k8s.Object, bool) {
	cm, ok := p.configMaps[configMapKey(p.deploy)]
	return cm, ok
}

// configMapKey is the index key of a Deployment's own ConfigMap.
func configMapKey(deploy k8s.Object) string {
	return deploy.Namespace() + "/" + deploy.Name() + "-config"
}

// config decodes file key of the Deployment's ConfigMap into v. A non-nil
// name is the name field of v: it must be the Deployment's, because the
// component's fault-injection name, data directory and query-server entry
// use it, and the cluster finds the component by Deployment name.
func (p *podRecord) config(key string, v any, name *string) error {
	cm, ok := p.configMap()
	if !ok {
		return fmt.Errorf("deploy: ConfigMap %s-config not found", p.name())
	}
	data, ok := cm.ConfigData()[key]
	if !ok {
		return fmt.Errorf("deploy: ConfigMap %s-config lacks key %s", p.name(), key)
	}
	if err := json.Unmarshal([]byte(data), v); err != nil {
		return fmt.Errorf("deploy: bad %s for %s: %w", key, p.name(), err)
	}
	if name != nil && *name != p.name() {
		return fmt.Errorf("deploy: %s names %q, but its Deployment is %q", key, *name, p.name())
	}
	return nil
}

// brokerFor is the live address of the broker shard a pod connects to.
func (c *Cluster) brokerFor(p *podRecord, shard int) (string, error) {
	addr, err := c.BrokerShardAddr(shard)
	if err != nil {
		return "", fmt.Errorf("deploy: %s %s started before the broker: %w", p.status.Component, p.name(), err)
	}
	return addr, nil
}

// startBroker starts one broker shard: a broker.Node that forwards
// non-owned publishes to owner shards and pulls remote-owned subscriptions
// over acked bridge links. A broker.json ConfigMap places the node in a
// federation; a one-broker plant's Deployment has none and is shard 0 of 1,
// which owns every topic and forwards and bridges nothing. Peers resolve
// through BrokerShardAddr, so a restarted peer's new port is found on the
// next (re)dial.
func startBroker(c *Cluster, p *podRecord) (component, error) {
	bc := codegen.BrokerShardConfig{Shards: 1}
	if _, ok := p.configMap(); ok {
		if err := p.config("broker.json", &bc, nil); err != nil {
			return nil, err
		}
	}
	opts := broker.NodeOptions{
		Workcells: bc.Workcells,
		Resolve:   c.BrokerShardAddr,
	}
	inj := c.FaultInjector
	if inj != nil {
		opts.Dial = func(link, addr string) (net.Conn, error) {
			return inj.Dial(link, addr, 2*time.Second)
		}
	}
	n := broker.NewNode(bc.Shard, bc.Shards, opts)
	if inj != nil {
		injName := strings.TrimPrefix(p.name(), "message-")
		n.Broker.ListenWrapper = func(ln net.Listener) net.Listener {
			return inj.Wrap(injName, ln)
		}
	}
	if err := n.Serve("127.0.0.1:0"); err != nil {
		n.Close()
		return nil, err
	}
	return n, nil
}

func startServer(c *Cluster, p *podRecord) (component, error) {
	var sc codegen.ServerConfig
	if err := p.config("server.json", &sc, &sc.Name); err != nil {
		return nil, err
	}
	machines := make([]codegen.MachineConfig, len(sc.Machines))
	for i, name := range sc.Machines {
		if err := p.config("machine-"+name+".json", &machines[i], nil); err != nil {
			return nil, err
		}
	}
	resolver := c.MachineEndpoints
	if resolver == nil {
		resolver = stack.IdentityResolver
	}
	srv := stack.NewMachineServer(sc, machines, resolver, c.PollPeriod)
	if inj := c.FaultInjector; inj != nil {
		srv.ListenWrapper = func(ln net.Listener) net.Listener {
			return inj.Wrap("opcua:"+sc.Name, ln)
		}
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	return srv, nil
}

func startClient(c *Cluster, p *podRecord) (component, error) {
	var cc codegen.ClientConfig
	if err := p.config("client.json", &cc, &cc.Name); err != nil {
		return nil, err
	}
	c.mu.Lock()
	for _, m := range cc.Machines {
		p.deps[m.Server] = true
	}
	c.mu.Unlock()
	brokerAddr, err := c.brokerFor(p, cc.Shard)
	if err != nil {
		return nil, err
	}
	client := stack.NewBridgeClient(cc, c.resolveServer, brokerAddr)
	if err := client.Start(); err != nil {
		return nil, err
	}
	return client, nil
}

// startHistorian starts a historian. With Cluster.DataDir every start goes
// through crash recovery: open snapshot + WAL, replay, resubscribe from the
// recovered session high-water marks. Without it the pod record's store
// carries the data across restarts.
func startHistorian(c *Cluster, p *podRecord) (component, error) {
	var sc codegen.StorageConfig
	if err := p.config("storage.json", &sc, &sc.Name); err != nil {
		return nil, err
	}
	brokerAddr, err := c.brokerFor(p, sc.Shard)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	dataDir := c.DataDir
	store := p.store
	if dataDir == "" && store == nil {
		// Recorded before the service starts: a start that fails after
		// acking samples into the store must not throw them away.
		store = historian.NewStore(sc.Retention)
		p.store = store
	}
	c.mu.Unlock()
	var svc *historian.Service
	if dataDir != "" {
		opts := historian.DurableOptions{MaxPerSeries: sc.Retention}
		if inj := c.FaultInjector; inj != nil {
			opts.FS = inj.WrapFS("disk:"+sc.Name, wal.OS)
		}
		svc, err = historian.NewDurableService(brokerAddr, sc.Name, sc.Topics,
			filepath.Join(dataDir, sc.Name), opts)
	} else {
		svc, err = historian.NewAckedService(brokerAddr, sc.Name, sc.Topics, store)
	}
	if err != nil {
		return nil, err
	}
	return svc, nil
}

func startMonitor(c *Cluster, p *podRecord) (component, error) {
	var mc codegen.MonitorConfig
	if err := p.config("monitor.json", &mc, &mc.Name); err != nil {
		return nil, err
	}
	brokerAddr, err := c.brokerFor(p, mc.Shard)
	if err != nil {
		return nil, err
	}
	mon := stack.NewWorkcellMonitor(mc, brokerAddr)
	if err := mon.Start(); err != nil {
		return nil, err
	}
	return mon, nil
}

// startPod (re)starts the component behind a pod and puts it in the
// record. It runs on first apply and on every supervised restart; broker
// and server addresses are read fresh each time, so a restarted broker
// cascades its new address to the components restarted after it.
func (c *Cluster) startPod(p *podRecord) error {
	if p.kind.start == nil {
		return fmt.Errorf("deploy: deployment %s has no recognized component label", p.name())
	}
	comp, err := p.kind.start(c, p)
	if err != nil {
		return err
	}
	c.mu.Lock()
	p.comp = comp
	qs := c.queryServer
	c.mu.Unlock()
	if h, ok := comp.(*historian.Service); ok && qs != nil {
		qs.Register(p.name(), h.Store)
	}
	return nil
}

// stopPod stops the component behind a pod, if one runs, without touching
// the pod's status: a restart, KillPod, Remove and Shutdown all stop
// through here.
func (c *Cluster) stopPod(p *podRecord) {
	c.mu.Lock()
	comp := p.comp
	p.comp = nil
	qs := c.queryServer
	c.mu.Unlock()
	if comp == nil {
		return
	}
	if _, ok := comp.(*historian.Service); ok && qs != nil {
		qs.Unregister(p.name())
	}
	comp.Stop()
}

// probe is a pod's liveness check, or with ready its readiness check. A
// missing component (killed or mid-restart) fails both, and a failed
// liveness check is what triggers the restart path.
func (c *Cluster) probe(p *podRecord, ready bool) error {
	c.mu.Lock()
	comp := p.comp
	c.mu.Unlock()
	if comp == nil {
		return fmt.Errorf("deploy: %s %s not running", p.status.Component, p.name())
	}
	if r, ok := comp.(readier); ready && ok {
		return r.Ready()
	}
	return comp.Health()
}
