// Package codegen implements the paper's two-step automatic configuration
// generation:
//
//  1. From the extracted Factory, produce intermediate JSON files: one per
//     Machine (OPC UA server entry + driver connection parameters) and, per
//     group of machines (grouped to minimize the number of OPC UA client
//     modules under per-client variable/method capacities), two JSON files:
//     the OPC UA client config and the historian (database writer) config.
//  2. From the JSON configs, build each software component's Kubernetes
//     objects and render them as one YAML manifest (manifests.go).
package codegen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"github.com/smartfactory/sysml2conf/internal/core"
	"github.com/smartfactory/sysml2conf/internal/placement"
)

// Topic layout: factory/<line>/<workcell>/<machine>/values/<category>/<var>
// and factory/.../services/<service>/request|response.

// TopicForVariable returns the broker topic a variable is published on.
func TopicForVariable(m *core.Machine, v core.Variable) string {
	return fmt.Sprintf("factory/%s/%s/%s/values/%s", m.Line, m.Workcell, m.Name, v.Path())
}

// TopicsForService returns the request/response topic pair of a service.
func TopicsForService(m *core.Machine, s core.Service) (req, resp string) {
	base := fmt.Sprintf("factory/%s/%s/%s/services/%s", m.Line, m.Workcell, m.Name, s.Name)
	return base + "/request", base + "/response"
}

// NodeIDForVariable returns the OPC UA node id hosting a variable.
func NodeIDForVariable(m *core.Machine, v core.Variable) string {
	return fmt.Sprintf("ns=1;s=%s/%s", m.Name, v.Path())
}

// NodeIDForService returns the OPC UA method node id of a service.
func NodeIDForService(m *core.Machine, s core.Service) string {
	return fmt.Sprintf("ns=1;s=%s/services/%s", m.Name, s.Name)
}

// VarConfig is one variable entry of a machine's JSON config.
type VarConfig struct {
	Name      string `json:"name"`
	Category  string `json:"category,omitempty"`
	Path      string `json:"path"`
	Type      string `json:"type"`
	Direction string `json:"direction"`
	NodeID    string `json:"nodeId"`
	Topic     string `json:"topic"`
}

// ParamConfig describes a service argument or return.
type ParamConfig struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// MethodConfig is one service entry of a machine's JSON config.
type MethodConfig struct {
	Name          string        `json:"name"`
	NodeID        string        `json:"nodeId"`
	Args          []ParamConfig `json:"args,omitempty"`
	Returns       []ParamConfig `json:"returns,omitempty"`
	RequestTopic  string        `json:"requestTopic"`
	ResponseTopic string        `json:"responseTopic"`
}

// DriverConfig carries the connection parameters to the machine driver.
type DriverConfig struct {
	Type       string         `json:"type"`
	Protocol   string         `json:"protocol"`
	Generic    bool           `json:"generic"`
	Parameters map[string]any `json:"parameters"`
}

// MachineConfig is the per-machine intermediate JSON (step 1 output): the
// information needed to configure the machine's entry in its workcell's
// OPC UA server plus the driver connection parameters.
type MachineConfig struct {
	Machine   string         `json:"machine"`
	Type      string         `json:"machineType"`
	Line      string         `json:"line"`
	Workcell  string         `json:"workcell"`
	Server    string         `json:"server"` // owning OPC UA server name
	Driver    DriverConfig   `json:"driver"`
	Variables []VarConfig    `json:"variables"`
	Methods   []MethodConfig `json:"methods"`
}

// ServerConfig aggregates a workcell's machines into one OPC UA server
// (the paper: "creating an OPC UA server for each workcell").
type ServerConfig struct {
	Name     string   `json:"name"`
	Workcell string   `json:"workcell"`
	Line     string   `json:"line"`
	Port     int      `json:"port"`
	Machines []string `json:"machines"` // machine config names hosted here
	// Shard is the broker shard owning this workcell's topics (federated
	// plants only; absent means the single-broker layout).
	Shard int `json:"shard,omitempty"`
}

// ClientMachine is one machine bridged by an OPC UA client module.
type ClientMachine struct {
	Machine       string         `json:"machine"`
	Workcell      string         `json:"workcell"`
	Server        string         `json:"server"`
	Subscriptions []VarConfig    `json:"subscriptions"`
	Methods       []MethodConfig `json:"methods"`
}

// ClientConfig is the per-group OPC UA client JSON (step 1 output).
type ClientConfig struct {
	Name      string          `json:"name"`
	Machines  []ClientMachine `json:"machines"`
	Variables int             `json:"variables"` // capacity accounting
	Methods   int             `json:"methods"`
	// Shard is the broker shard the module publishes to. Sharded grouping
	// never packs machines from two shards into one module, so every
	// publish lands on its owner broker without a forwarding hop.
	Shard int `json:"shard,omitempty"`
}

// StorageConfig is the per-group historian JSON (step 1 output).
type StorageConfig struct {
	Name      string   `json:"name"`
	Topics    []string `json:"topics"`
	Retention int      `json:"retentionPerSeries"`
	// Shard is the broker shard owning every topic in Topics (federated
	// plants only), so the historian subscribes on the owner directly.
	Shard int `json:"shard,omitempty"`
}

// PlacementConfig is the emitted workcell → broker-shard assignment of a
// federated plant: the single source the runtime router, the bridge
// links and the per-component Shard fields all agree with (the emitted
// values come from the same consistent-hash ring the brokers run).
type PlacementConfig struct {
	Shards    int            `json:"shards"`
	Workcells map[string]int `json:"workcells"`
}

// BrokerShardConfig is one broker node's slice of the placement: its own
// shard index, the shard count, and the full workcell universe it needs
// to expand wildcard filters into per-workcell bridge pulls.
type BrokerShardConfig struct {
	Shard     int            `json:"shard"`
	Shards    int            `json:"shards"`
	Workcells map[string]int `json:"workcells"`
}

// BrokerShardName returns the deployment/service name of a broker shard.
func BrokerShardName(shard int) string {
	return fmt.Sprintf("message-broker-s%d", shard)
}

// Intermediate is the complete step-1 output.
type Intermediate struct {
	Factory  string
	Machines []MachineConfig
	Servers  []ServerConfig
	Clients  []ClientConfig
	Storage  []StorageConfig
	Monitors []MonitorConfig
	Grouping GroupingReport
	// Placement is the broker-shard assignment (nil for single-broker
	// plants, i.e. Options.Shards <= 1).
	Placement *PlacementConfig
}

// ServerNameFor returns the OPC UA server name of a workcell.
func ServerNameFor(workcell string) string {
	return "opcua-server-" + sanitizeName(workcell)
}

// sanitizeName lowercases and strips characters not allowed in Kubernetes
// resource names.
func sanitizeName(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == '-' || r == '.':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	out := strings.Trim(b.String(), "-.")
	if out == "" {
		out = "x"
	}
	return out
}

// Options tunes step 1.
type Options struct {
	// MaxVarsPerClient and MaxMethodsPerClient are the per-client-module
	// capacities the grouping respects. Zero values use the defaults
	// calibrated to the ICE Laboratory deployment (100 variables, 40
	// methods per client module), which reproduce the paper's 4 client
	// modules for the 10-machine plant.
	MaxVarsPerClient    int
	MaxMethodsPerClient int
	// Strategy selects the grouping algorithm (GroupFFD default).
	Strategy GroupingStrategy
	// BaseServerPort is the port assigned to the first OPC UA server;
	// subsequent servers increment it. Zero uses 4840 (the OPC UA port).
	BaseServerPort int
	// HistorianRetention bounds stored points per series (0: 10000).
	HistorianRetention int
	// MonitorPeriodMs is the workcell monitors' publish period (0: 500).
	MonitorPeriodMs int
	// Shards federates the message broker across this many nodes, placing
	// each workcell's topics on a shard by consistent hash and grouping
	// client modules shard-locally. 0 or 1 keeps the single-broker layout
	// and produces byte-identical output to earlier versions.
	Shards int
}

func (o Options) withDefaults() Options {
	if o.MaxVarsPerClient <= 0 {
		o.MaxVarsPerClient = 100
	}
	if o.MaxMethodsPerClient <= 0 {
		o.MaxMethodsPerClient = 40
	}
	if o.BaseServerPort <= 0 {
		o.BaseServerPort = 4840
	}
	if o.HistorianRetention <= 0 {
		o.HistorianRetention = 10000
	}
	if o.MonitorPeriodMs <= 0 {
		o.MonitorPeriodMs = 500
	}
	return o
}

// BuildIntermediate runs step 1: Factory -> intermediate JSON configs.
func BuildIntermediate(f *core.Factory, opts Options) (*Intermediate, error) {
	opts = opts.withDefaults()
	out := &Intermediate{Factory: f.Name}

	// One OPC UA server per workcell, ports assigned deterministically.
	port := opts.BaseServerPort
	serverOf := map[string]string{}
	for _, line := range f.Lines {
		for _, wc := range line.Workcells {
			if len(wc.Machines) == 0 {
				continue
			}
			name := ServerNameFor(wc.Name)
			serverOf[wc.Name] = name
			srv := ServerConfig{Name: name, Workcell: wc.Name, Line: line.Name, Port: port}
			for _, m := range wc.Machines {
				srv.Machines = append(srv.Machines, m.Name)
			}
			out.Servers = append(out.Servers, srv)
			port++
		}
	}

	// Broker-shard placement: hash every workcell onto the ring the broker
	// nodes themselves run, so the emitted assignment and the runtime
	// router cannot disagree. Line-level monitors publish under the
	// "_monitor" pseudo-workcell segment, which therefore needs a place on
	// the ring too.
	var shardOf map[string]int
	if opts.Shards > 1 {
		keys := make([]string, 0, len(serverOf)+1)
		for wc := range serverOf {
			keys = append(keys, wc)
		}
		for _, line := range f.Lines {
			if len(line.Monitors) > 0 {
				keys = append(keys, "_monitor")
				break
			}
		}
		shardOf = placement.NewRing(opts.Shards).Assign(keys)
		out.Placement = &PlacementConfig{Shards: opts.Shards, Workcells: shardOf}
		for i := range out.Servers {
			out.Servers[i].Shard = shardOf[out.Servers[i].Workcell]
		}
	}

	// Per-machine configs.
	for _, m := range f.Machines() {
		mc := MachineConfig{
			Machine:  m.Name,
			Type:     m.TypeName,
			Line:     m.Line,
			Workcell: m.Workcell,
			Server:   serverOf[m.Workcell],
			Driver: DriverConfig{
				Type:       m.Driver.TypeName,
				Protocol:   m.Driver.Protocol,
				Generic:    m.Driver.Generic,
				Parameters: map[string]any{},
			},
		}
		for k, v := range m.Driver.Parameters {
			mc.Driver.Parameters[k] = v.Interface()
		}
		for _, v := range m.Variables {
			mc.Variables = append(mc.Variables, VarConfig{
				Name:      v.Name,
				Category:  v.Category,
				Path:      v.Path(),
				Type:      v.TypeName,
				Direction: v.Direction,
				NodeID:    NodeIDForVariable(m, v),
				Topic:     TopicForVariable(m, v),
			})
		}
		for _, s := range m.Services {
			req, resp := TopicsForService(m, s)
			method := MethodConfig{
				Name:          s.Name,
				NodeID:        NodeIDForService(m, s),
				RequestTopic:  req,
				ResponseTopic: resp,
			}
			for _, a := range s.Args {
				method.Args = append(method.Args, ParamConfig{Name: a.Name, Type: a.TypeName})
			}
			for _, r := range s.Returns {
				method.Returns = append(method.Returns, ParamConfig{Name: r.Name, Type: r.TypeName})
			}
			mc.Methods = append(mc.Methods, method)
		}
		out.Machines = append(out.Machines, mc)
	}

	// Workcell monitors. A workcell monitor lands on its workcell's shard
	// (its source filter is workcell-keyed, so the owner serves it without
	// a bridge hop); line monitors aggregate across workcells and sit on
	// the shard owning their "_monitor" publish topics.
	monitors, err := buildMonitors(f, opts.MonitorPeriodMs)
	if err != nil {
		return nil, err
	}
	if shardOf != nil {
		for i := range monitors {
			if wc := monitors[i].Workcell; wc != "" {
				monitors[i].Shard = shardOf[wc]
			} else {
				monitors[i].Shard = shardOf["_monitor"]
			}
		}
	}
	out.Monitors = monitors

	// Group machines into OPC UA client modules; federated plants group
	// within each shard so no module publishes across shard boundaries.
	var groups [][]MachineConfig
	var groupShards []int
	if shardOf == nil {
		groups, out.Grouping = Group(out.Machines, opts)
	} else {
		groups, groupShards, out.Grouping = GroupSharded(out.Machines, opts, shardOf)
	}
	for i, g := range groups {
		name := fmt.Sprintf("opcua-client-%d", i+1)
		cc := ClientConfig{Name: name}
		sc := StorageConfig{Name: fmt.Sprintf("historian-%d", i+1), Retention: opts.HistorianRetention}
		if groupShards != nil {
			cc.Shard = groupShards[i]
			sc.Shard = groupShards[i]
		}
		for _, mc := range g {
			cm := ClientMachine{
				Machine:       mc.Machine,
				Workcell:      mc.Workcell,
				Server:        mc.Server,
				Subscriptions: mc.Variables,
				Methods:       mc.Methods,
			}
			cc.Machines = append(cc.Machines, cm)
			cc.Variables += len(mc.Variables)
			cc.Methods += len(mc.Methods)
			sc.Topics = append(sc.Topics,
				fmt.Sprintf("factory/%s/%s/%s/values/#", mc.Line, mc.Workcell, mc.Machine))
		}
		sort.Strings(sc.Topics)
		out.Clients = append(out.Clients, cc)
		out.Storage = append(out.Storage, sc)
	}
	return out, nil
}

// marshalJSONArtifact encodes one step-1 artifact once: file is the
// on-disk format (indented JSON with a trailing newline, what
// json.MarshalIndent writes) and compact the json.Marshal bytes it indents.
func marshalJSONArtifact(name string, v any) (file, compact []byte, err error) {
	compact, err = json.Marshal(v)
	if err != nil {
		return nil, nil, fmt.Errorf("codegen: encode %s: %w", name, err)
	}
	b := bytes.NewBuffer(make([]byte, 0, 2*len(compact)+1))
	if err := json.Indent(b, compact, "", "  "); err != nil {
		return nil, nil, fmt.Errorf("codegen: encode %s: %w", name, err)
	}
	return append(b.Bytes(), '\n'), compact, nil
}

// JSONFiles renders the intermediate configs to their file map
// ("machines/<name>.json", "clients/<name>.json", ...). This is the
// artifact set the paper's step 1 writes to disk.
func (in *Intermediate) JSONFiles() (map[string][]byte, error) {
	files := map[string][]byte{}
	put := func(name string, v any) error {
		data, _, err := marshalJSONArtifact(name, v)
		if err != nil {
			return err
		}
		files[name] = data
		return nil
	}
	for _, mc := range in.Machines {
		if err := put("machines/"+sanitizeName(mc.Machine)+".json", mc); err != nil {
			return nil, err
		}
	}
	for _, sc := range in.Servers {
		if err := put("servers/"+sanitizeName(sc.Name)+".json", sc); err != nil {
			return nil, err
		}
	}
	for _, cc := range in.Clients {
		if err := put("clients/"+sanitizeName(cc.Name)+".json", cc); err != nil {
			return nil, err
		}
	}
	for _, st := range in.Storage {
		if err := put("storage/"+sanitizeName(st.Name)+".json", st); err != nil {
			return nil, err
		}
	}
	for _, mc := range in.Monitors {
		if err := put("monitors/"+sanitizeName(mc.Name)+".json", mc); err != nil {
			return nil, err
		}
	}
	if in.Placement != nil {
		if err := put("placement.json", in.Placement); err != nil {
			return nil, err
		}
	}
	return files, nil
}
