package main

// plant.go is the adapter between the harness and the repository: together
// with layers.go (the per-layer probes of a traced run) it is the only file
// that imports the repository's packages. The workloads speak in the
// harness's own terms — series indexes, method indexes, payload bytes — so a
// change to the repository's API surface is absorbed here. README.md lists
// every symbol used and the ones deliberately avoided.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	sysml2conf "github.com/smartfactory/sysml2conf"
	"github.com/smartfactory/sysml2conf/internal/broker"
	"github.com/smartfactory/sysml2conf/internal/codegen"
	"github.com/smartfactory/sysml2conf/internal/deploy"
	"github.com/smartfactory/sysml2conf/internal/icelab"
	"github.com/smartfactory/sysml2conf/internal/isa95"
	"github.com/smartfactory/sysml2conf/internal/k8s"
	"github.com/smartfactory/sysml2conf/internal/machinesim"
	"github.com/smartfactory/sysml2conf/internal/ops"
	"github.com/smartfactory/sysml2conf/internal/stack"
)

// plantOpts is what a workload fixes about its plant.
type plantOpts struct {
	scale   int           // icelab.Scaled(scale)
	shards  int           // broker shards; <= 1 is the singleton broker
	poll    time.Duration // the OPC UA servers' driver poll period
	durable bool          // WAL-backed historians in a scratch directory
}

// model is a plant description the harness owns: the spec is the reference
// the correctness checks count against, text is what the toolchain reads.
type model struct {
	spec icelab.FactorySpec
	text string
}

// newModel renders icelab.Scaled(scale). A non-empty tag renames every
// machine and moves every IP (fixed width, so every tagged model has the
// same size and different bytes) — the toolchain sees a model it has never
// seen before.
func newModel(scale int, tag string, rng *rand.Rand) model {
	spec := icelab.Scaled(scale)
	if tag != "" {
		renamed := make(map[string]string, len(spec.Machines))
		machines := make([]icelab.MachineSpec, len(spec.Machines))
		for i, m := range spec.Machines {
			renamed[m.Name] = m.Name + tag
			m.Name += tag
			last := m.IP[strings.LastIndexByte(m.IP, '.'):]
			m.IP = fmt.Sprintf("10.%d.%d%s", 100+rng.Intn(100), 100+rng.Intn(100), last)
			machines[i] = m
		}
		spec.Machines = machines
		procs := make([]icelab.ProcessSpec, len(spec.Processes))
		for i, p := range spec.Processes {
			steps := append([]icelab.ProcessStepSpec(nil), p.Steps...)
			for j := range steps {
				steps[j].Machine = renamed[steps[j].Machine]
			}
			procs[i] = icelab.ProcessSpec{Name: p.Name, Steps: steps}
		}
		spec.Processes = procs
	}
	return model{spec: spec, text: icelab.GenerateModelText(spec)}
}

// withClonedAGV is the seeded one-machine edit: one of the model's AGVs
// joins its workcell a second time under a new name and endpoint. It
// returns the edited model and the names of the original and the clone.
func (m model) withClonedAGV(rng *rand.Rand) (edited model, orig, clone string) {
	var agvs []icelab.MachineSpec
	for _, ms := range m.spec.Machines {
		if ms.TypeName == "RBKairos" {
			agvs = append(agvs, ms)
		}
	}
	c := agvs[rng.Intn(len(agvs))]
	orig = c.Name
	c.Name += "Clone"
	c.IP = fmt.Sprintf("10.198.%d.%d", 10+rng.Intn(200), 10+rng.Intn(200))
	c.Port += 1000
	spec := m.spec
	spec.Machines = append(append([]icelab.MachineSpec(nil), m.spec.Machines...), c)
	return model{spec: spec, text: icelab.GenerateModelText(spec)}, orig, c.Name
}

// specCounts are the reference counts taken from the input spec.
type specCounts struct{ machines, variables, services, servers int }

func (m model) counts() specCounts {
	c := specCounts{machines: len(m.spec.Machines), servers: len(m.spec.Workcells())}
	for _, ms := range m.spec.Machines {
		for _, cat := range ms.Categories {
			c.variables += len(cat.Vars)
		}
		c.services += len(ms.Services)
	}
	return c
}

// build is one pass of the toolchain over a model text.
type build struct {
	res     *sysml2conf.Result
	bundle  *codegen.Bundle // what gets deployed; sharded when shards > 1
	ms      float64         // wall time of the pass
	allocMB float64         // heap bytes allocated by the pass
}

// generate runs model text → bundle. sysml2conf.Run has no shard option, so
// a sharded plant re-renders the extracted factory with codegen.Generate;
// both calls are inside the timed pass. With prev set it is the incremental
// pass over prev's unit cache.
func generate(text string, shards int, prev *build) (*build, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var res *sysml2conf.Result
	var err error
	if prev != nil {
		res, err = sysml2conf.RunIncremental(prev.res, text, sysml2conf.Options{})
	} else {
		res, err = sysml2conf.Run(text, sysml2conf.Options{})
	}
	if err != nil {
		return nil, err
	}
	b := &build{res: res, bundle: res.Bundle}
	if shards > 1 {
		b.bundle, err = codegen.Generate(res.Factory, codegen.GenOptions{Options: codegen.Options{Shards: shards}})
		if err != nil {
			return nil, err
		}
	}
	b.ms = msSince(start)
	runtime.ReadMemStats(&after)
	b.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	return b, nil
}

// checkBundle decodes and validates the emitted manifests and counts what
// they configure against the input spec. The counts come from the YAML the
// cluster will read (server Deployments, machine JSON inside the server
// ConfigMaps), not from the generator's own summary.
func checkBundle(b *codegen.Bundle, want specCounts) []string {
	var problems []string
	var got specCounts
	for name, data := range b.Manifests {
		objs, err := k8s.Decode(data)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: decode: %v", name, err))
			continue
		}
		if err := k8s.Validate(objs); err != nil {
			problems = append(problems, fmt.Sprintf("%s: validate: %v", name, err))
		}
		for _, o := range objs {
			if o.Kind() == "Deployment" && o.Labels()["factory.io/component"] == "opcua-server" {
				got.servers++
			}
			if o.Kind() != "ConfigMap" || !strings.HasPrefix(o.Name(), "opcua-server-") {
				continue
			}
			for key, raw := range o.ConfigData() {
				if !strings.HasPrefix(key, "machine-") {
					continue
				}
				var mc struct {
					Variables []json.RawMessage `json:"variables"`
					Methods   []json.RawMessage `json:"methods"`
				}
				if err := json.Unmarshal([]byte(raw), &mc); err != nil {
					problems = append(problems, fmt.Sprintf("%s: %s: %v", name, key, err))
					continue
				}
				got.machines++
				got.variables += len(mc.Variables)
				got.services += len(mc.Methods)
			}
		}
	}
	if got != want {
		problems = append(problems, fmt.Sprintf("manifests configure %+v, the spec has %+v", got, want))
	}
	return problems
}

// series is one numeric machine variable: where the harness writes it (the
// emulator), where it is published (topic) and where it is stored.
type series struct {
	machine  string
	path     string // emulator variable name
	topic    string // broker topic and historian series name
	store    string // historian that ingests the topic
	server   string // OPC UA server hosting the node
	nodeID   string
	workcell string
	shard    int // broker shard owning the workcell's topics; 0 on a singleton
	emu      *machinesim.Machine
}

// method is one modeled machine service.
type method struct {
	machine string
	server  string // OPC UA server hosting the method node
	cfg     codegen.MethodConfig
	emu     *machinesim.Machine
}

// editTimes breaks one edit down (ms).
type editTimes struct{ reconfigure, total float64 }

// setupTimes breaks one commissioning down (all in ms).
type setupTimes struct {
	generate, fleet, apply, firstSample, total float64
}

// plant is a deployed plant: emulators, the simulated cluster running the
// generated stack, and the HTTP query API.
type plant struct {
	opts      plantOpts
	model     model
	build     *build
	fleet     *machinesim.Fleet
	cluster   *deploy.Cluster
	queryAddr string
	dataDir   string
	series    []series
	methods   []method
	watch     []int // one series per machine, in machine order
	times     setupTimes
}

// commission takes a model from text to a plant in which every machine of
// the spec answers over HTTP /range: generate, start the emulators, apply
// the bundle, start the query server, poke one variable per machine and
// poll until each has a point. query times the /range requests.
func commission(m model, opts plantOpts, scratch string, query *dist, tr *tracer, id int64) (*plant, error) {
	start := time.Now()
	b, err := generate(m.text, opts.shards, nil)
	if err != nil {
		return nil, err
	}
	generated := time.Now()
	tr.add(id, "generate", "commission", start, generated)
	p := &plant{opts: opts, model: m, build: b}
	in := b.bundle.Intermediate

	// The emulators' own value generators stay off: every value in the
	// plant is one the harness wrote, from its seed.
	fleet, _, err := deploy.StartFleet(in.Machines, 0)
	if err != nil {
		return nil, err
	}
	p.fleet = fleet
	fleetUp := time.Now()
	tr.add(id, "machinesim.fleet_start", "commission", generated, fleetUp)

	p.cluster = deploy.NewCluster(4, 64)
	// StartFleet's own resolver is a snapshot of the addresses; the edit
	// adds an emulator later, so resolve through the live fleet.
	p.cluster.MachineEndpoints = func(machine string, _ codegen.DriverConfig) (string, error) {
		emu := fleet.Machine(machine)
		if emu == nil {
			return "", fmt.Errorf("no emulator for machine %q", machine)
		}
		return emu.Addr(), nil
	}
	p.cluster.PollPeriod = opts.poll
	if opts.durable {
		p.dataDir, err = os.MkdirTemp(scratch, "historians-")
		if err != nil {
			p.shutdown()
			return nil, err
		}
		p.cluster.DataDir = p.dataDir
	}
	if err := p.cluster.ApplyBundle(b.bundle); err != nil {
		p.shutdown()
		return nil, err
	}
	if p.queryAddr, err = p.cluster.StartQueryServer("127.0.0.1:0"); err != nil {
		p.shutdown()
		return nil, err
	}
	applied := time.Now()
	tr.add(id, "deploy.apply", "commission", fleetUp, applied)

	p.index()
	if err := p.awaitAnswerable(p.watch, query); err != nil {
		p.shutdown()
		return nil, err
	}
	end := time.Now()
	tr.add(id, "deploy.first_sample", "commission", applied, end)
	tr.add(id, "commission", "", start, end)
	p.times = setupTimes{
		generate:    b.ms,
		fleet:       ms(fleetUp.Sub(generated)),
		apply:       ms(applied.Sub(fleetUp)),
		firstSample: ms(end.Sub(applied)),
		total:       ms(end.Sub(start)),
	}
	return p, nil
}

// index lists the numeric series and the services of the deployed bundle.
func (p *plant) index() {
	in := p.build.bundle.Intermediate
	storeOf := ops.StoreMap(in)
	p.series, p.methods, p.watch = nil, nil, nil
	for _, mc := range in.Machines {
		emu := p.fleet.Machine(mc.Machine)
		shard := 0
		if in.Placement != nil {
			shard = in.Placement.Workcells[mc.Workcell]
		}
		first := true
		for _, v := range mc.Variables {
			if v.Type != "Double" && v.Type != "Integer" {
				continue
			}
			if first {
				p.watch = append(p.watch, len(p.series))
				first = false
			}
			p.series = append(p.series, series{
				machine: mc.Machine, path: v.Path, topic: v.Topic, store: storeOf[mc.Machine],
				server: mc.Server, nodeID: v.NodeID, workcell: mc.Workcell, shard: shard, emu: emu,
			})
		}
		for _, mth := range mc.Methods {
			p.methods = append(p.methods, method{machine: mc.Machine, server: mc.Server, cfg: mth, emu: emu})
		}
	}
}

// set writes a value into the emulator, where the driver poll will find it.
func (p *plant) set(i int, v float64) error {
	s := &p.series[i]
	return s.emu.Set(s.path, v)
}

// pokeValue is what awaitAnswerable writes; the stream workloads' stamps
// start far above it (stampBase), so a poke is never taken for a stamp.
const pokeValue = -1

// awaitAnswerable pokes each listed series and polls /range until every one
// has at least one point.
func (p *plant) awaitAnswerable(idx []int, query *dist) error {
	for n, i := range idx {
		if err := p.set(i, pokeValue-float64(n)); err != nil {
			return err
		}
	}
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	pending := append([]int(nil), idx...)
	deadline := time.Now().Add(20 * time.Second)
	for len(pending) > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d machines never answered over /range (first: %s)", len(pending), p.series[pending[0]].topic)
		}
		still := pending[:0]
		for _, i := range pending {
			t0 := time.Now()
			pts, err := p.rangePoints(client, i, time.Time{}, time.Time{})
			if err != nil {
				return err
			}
			query.add(msSince(t0))
			if len(pts) == 0 {
				still = append(still, i)
			}
		}
		pending = still
		if len(pending) > 0 {
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// edit applies an edited model to the running plant: the incremental pass
// over the unit cache, then a diff-driven Reconfigure; it returns once the
// added machine answers over /range and every pod runs. The clone's
// emulator (the machine physically joining the cell) is started first and
// is not part of the timed edit.
func (p *plant) edit(edited model, orig, clone string, query *dist, tr *tracer, id int64) (editTimes, error) {
	var out editTimes
	for _, mc := range p.build.bundle.Intermediate.Machines {
		if mc.Machine == orig {
			spec := deploy.SpecForMachine(mc)
			spec.Name = clone
			if _, err := p.fleet.Start(spec, 0); err != nil {
				return out, err
			}
		}
	}
	start := time.Now()
	next, err := generate(edited.text, p.opts.shards, p.build)
	if err != nil {
		return out, err
	}
	regenerated := time.Now()
	if _, err := p.cluster.Reconfigure(p.build.bundle, next.bundle); err != nil {
		return out, err
	}
	reconfigured := time.Now()
	p.model, p.build = edited, next
	p.index()
	var added []int
	for _, i := range p.watch {
		if p.series[i].machine == clone {
			added = append(added, i)
		}
	}
	if len(added) != 1 {
		return out, fmt.Errorf("edited bundle has %d watch series for %s", len(added), clone)
	}
	if err := p.awaitAnswerable(added, query); err != nil {
		return out, err
	}
	for !p.cluster.AllRunning() {
		if time.Since(reconfigured) > 10*time.Second {
			return out, fmt.Errorf("pods not all running after the edit")
		}
		time.Sleep(time.Millisecond)
	}
	end := time.Now()
	tr.add(id, "regenerate", "edit", start, regenerated)
	tr.add(id, "deploy.reconfigure", "edit", regenerated, reconfigured)
	tr.add(id, "deploy.first_sample", "edit", reconfigured, end)
	tr.add(id, "edit", "", start, end)
	return editTimes{reconfigure: ms(reconfigured.Sub(regenerated)), total: ms(end.Sub(start))}, nil
}

func (p *plant) pods() int { return len(p.cluster.Pods()) }

// shutdown drains the cluster and stops the emulators. The durable
// directory stays until removeData: firehose re-opens it.
func (p *plant) shutdown() {
	if p.cluster != nil {
		p.cluster.Shutdown()
	}
	if p.fleet != nil {
		p.fleet.Close()
	}
}

func (p *plant) removeData() {
	if p.dataDir != "" {
		os.RemoveAll(p.dataDir)
	}
}

// ---------------------------------------------------------------------------
// Broker side

// brokerConn is one client connection to the plant's broker tier.
type brokerConn struct{ c *broker.Client }

// dialBroker connects to the singleton broker, or to one shard of a
// federated plant.
func (p *plant) dialBroker(shard int) (*brokerConn, error) {
	addr := p.cluster.BrokerAddr()
	if p.opts.shards > 1 {
		var err error
		if addr, err = p.cluster.BrokerShardAddr(shard); err != nil {
			return nil, err
		}
	}
	c, err := broker.DialClient(addr)
	if err != nil {
		return nil, err
	}
	return &brokerConn{c}, nil
}

func (b *brokerConn) close() { b.c.Close() }

func (b *brokerConn) publish(topic string, payload []byte) error {
	return b.c.Publish(topic, payload, false)
}

// consume subscribes to filter and runs fn on every message until the
// connection closes. With a session name the subscription is an acked
// at-least-once session and each message is acknowledged after fn returns.
// It returns once the subscription is registered; done closes when the
// consumer goroutine has exited.
func (b *brokerConn) consume(filter, session string, fn func(topic string, payload []byte)) (done <-chan struct{}, err error) {
	var id int
	var ch <-chan broker.Message
	if session != "" {
		id, ch, err = b.c.SubscribeSession(filter, session, 0)
	} else {
		id, ch, err = b.c.Subscribe(filter)
	}
	if err != nil {
		return nil, err
	}
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		for m := range ch {
			fn(m.Topic, m.Payload)
			if session != "" {
				if err := b.c.Ack(id, m.Seq); err != nil {
					return
				}
			}
		}
	}()
	return exited, nil
}

// call invokes one modeled service through the generated stack: broker →
// bridge → OPC UA method → driver → emulator and back.
func (b *brokerConn) call(m *method) error {
	reply, err := stack.CallService(b.c, m.cfg, nil, 5*time.Second)
	if err != nil {
		return err
	}
	if !reply.OK {
		return fmt.Errorf("%s.%s: %s", m.machine, m.cfg.Name, reply.Error)
	}
	return nil
}

// callCounts sums the emulators' own per-service invocation counters.
func (p *plant) callCounts() int {
	total := 0
	for i := range p.methods {
		total += p.methods[i].emu.CallCount(p.methods[i].cfg.Name)
	}
	return total
}

// setCallDelay plants a fixed delay in every emulator service call (the
// selftest's planted regression).
func (p *plant) setCallDelay(d time.Duration) {
	for _, name := range p.fleet.Names() {
		p.fleet.Machine(name).SetCallDelay(d)
	}
}

// sampleValue extracts the numeric "value" of a published variable sample
// without decoding the whole body; ok is false for non-numeric values.
func sampleValue(payload []byte) (float64, bool) {
	i := bytes.LastIndex(payload, []byte(`"value":`))
	if i < 0 {
		return 0, false
	}
	rest := payload[i+len(`"value":`):]
	if j := bytes.IndexByte(rest, '}'); j >= 0 {
		rest = rest[:j]
	}
	v, err := strconv.ParseFloat(string(bytes.TrimSpace(rest)), 64)
	return v, err == nil
}

// ---------------------------------------------------------------------------
// Historian side

// latest is the newest value the owning historian holds for a series.
func (p *plant) latest(i int) (float64, bool) {
	s := &p.series[i]
	h := p.cluster.Historian(s.store)
	if h == nil {
		return 0, false
	}
	pt, err := h.Store.Latest(s.topic)
	if err != nil {
		return 0, false
	}
	return sampleValue(pt.Payload)
}

// totalAppended sums the lifetime append counters of every historian.
func (p *plant) totalAppended() uint64 {
	var total uint64
	for _, name := range p.cluster.Historians() {
		if h := p.cluster.Historian(name); h != nil {
			total += h.Store.TotalAppended()
		}
	}
	return total
}

// newHTTPClient returns a client that keeps one connection alive.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
		},
	}
}

// httpJSON issues GET path?params against the query API and decodes the
// JSON body into out. A non-200 status is an error.
func (p *plant) httpJSON(client *http.Client, path string, params url.Values, out any) error {
	resp, err := client.Get("http://" + p.queryAddr + path + "?" + params.Encode())
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, out)
}

func seriesParams(s *series, from, to time.Time) url.Values {
	v := url.Values{"store": {s.store}, "series": {s.topic}}
	if !from.IsZero() {
		v.Set("from", strconv.FormatInt(from.UnixNano(), 10))
	}
	if !to.IsZero() {
		v.Set("to", strconv.FormatInt(to.UnixNano(), 10))
	}
	return v
}

// rangePoints fetches /range for a series and returns the numeric values in
// stored order. Zero bounds mean the beginning of time and now.
func (p *plant) rangePoints(client *http.Client, i int, from, to time.Time) ([]float64, error) {
	var body struct {
		Points []struct {
			Payload json.RawMessage `json:"payload"`
		} `json:"points"`
	}
	if err := p.httpJSON(client, "/range", seriesParams(&p.series[i], from, to), &body); err != nil {
		return nil, err
	}
	vals := make([]float64, 0, len(body.Points))
	for _, pt := range body.Points {
		if v, ok := sampleValue(pt.Payload); ok {
			vals = append(vals, v)
		}
	}
	return vals, nil
}

// aggregateCount fetches /aggregate with 1 s windows over [from, to) and
// returns the number of windows and the points they count.
func (p *plant) aggregateCount(client *http.Client, i int, from, to time.Time) (windows, points int, err error) {
	var body struct {
		Windows []struct {
			Count int `json:"count"`
		} `json:"windows"`
	}
	params := seriesParams(&p.series[i], from, to)
	params.Set("window", "1s")
	if err = p.httpJSON(client, "/aggregate", params, &body); err != nil {
		return 0, 0, err
	}
	for _, w := range body.Windows {
		points += w.Count
	}
	return len(body.Windows), points, nil
}

// ---------------------------------------------------------------------------
// Operations tier

// campaignResult is one campaign from compile to audit.
type campaignResult struct {
	compileMS, runMS, auditMS float64
	steps                     int
	resumed                   bool // Run returned before the ledger was flushed; see runCampaign
	problems                  []string
}

// runCampaign compiles parts × a 3-operation recipe against the deployed
// plant, runs it, and audits the ledger against the historian over HTTP.
//
// Executor.Run occasionally returns without an error while the last ledger
// events are still unpublished (its publisher compares against a stale
// LastSeq when the workers finish; seen about once in 150 campaigns). The
// ledger is built for exactly this: a second executor over the same ledger
// re-dispatches nothing and publishes the rest. The harness does that,
// inside the timed run, and reports how often as ops.flush_resumes.
func (p *plant) runCampaign(id string, parts int) (campaignResult, error) {
	var out campaignResult
	in := p.build.bundle.Intermediate
	hier, err := isa95.Extract(p.build.res.Model)
	if err != nil {
		return out, err
	}
	start := time.Now()
	recipe, err := ops.BuildRecipe(ops.InventoryFromIntermediate(in), "part", 3)
	if err != nil {
		return out, err
	}
	goal := ops.Goal{Campaign: id, Part: "part", Count: parts}
	ex, plan, err := p.cluster.NewCampaign(in, hier, goal, recipe, ops.ExecOptions{})
	if err != nil {
		return out, err
	}
	compiled := time.Now()
	rep, err := ex.Run()
	if err != nil {
		return out, err
	}
	flushed := rep.LedgerFlushed
	if flushed < rep.LedgerTotal {
		out.resumed = true
		again, _, err := p.cluster.NewCampaign(in, hier, goal, recipe, ops.ExecOptions{Ledger: ex.Ledger()})
		if err != nil {
			return out, err
		}
		rep2, err := again.Run()
		if err != nil {
			return out, err
		}
		flushed = rep2.LedgerFlushed
	}
	ran := time.Now()
	audit, err := ops.AuditCampaign(p.queryAddr, ex.Ledger(), ops.StoreMap(in), 20*time.Second)
	if err != nil {
		return out, err
	}
	out.compileMS, out.runMS, out.auditMS = ms(compiled.Sub(start)), ms(ran.Sub(compiled)), msSince(ran)
	out.steps = rep.StepsCompleted
	if rep.Completed != parts || rep.Failed != 0 {
		out.problems = append(out.problems, fmt.Sprintf("campaign %s: %d/%d parts completed, %d failed", id, rep.Completed, parts, rep.Failed))
	}
	if rep.StepsCompleted != len(plan.Steps) || flushed != uint64(len(plan.Steps)) {
		out.problems = append(out.problems, fmt.Sprintf("campaign %s: %d of %d steps completed, %d ledger events acknowledged", id, rep.StepsCompleted, len(plan.Steps), flushed))
	}
	if !audit.OK {
		out.problems = append(out.problems, fmt.Sprintf("campaign %s: audit: %s", id, strings.Join(audit.Mismatches, "; ")))
	}
	return out, nil
}

func ms(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func msSince(t time.Time) float64 { return ms(time.Since(t)) }
func us(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }
