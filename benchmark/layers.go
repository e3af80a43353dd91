package main

// layers.go holds the per-layer probes of a traced run: the build side stage
// by stage, isolated round trips against the live plant, scratch stores fed
// the workload's payloads, and one serial stamp tapped at every hop. With
// plant.go it is the only file that imports the repository's packages.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/smartfactory/sysml2conf/internal/codegen"
	"github.com/smartfactory/sysml2conf/internal/core"
	"github.com/smartfactory/sysml2conf/internal/historian"
	"github.com/smartfactory/sysml2conf/internal/k8s"
	"github.com/smartfactory/sysml2conf/internal/machinesim"
	"github.com/smartfactory/sysml2conf/internal/opcua"
	"github.com/smartfactory/sysml2conf/internal/placement"
	"github.com/smartfactory/sysml2conf/internal/sysml/lexer"
	"github.com/smartfactory/sysml2conf/internal/sysml/parser"
	"github.com/smartfactory/sysml2conf/internal/sysml/sema"
	"github.com/smartfactory/sysml2conf/internal/wal"
	"github.com/smartfactory/sysml2conf/internal/yamlenc"
)

// timeMedian runs fn reps times and returns the median duration.
func timeMedian(reps int, fn func() error) (time.Duration, error) {
	v := make([]float64, reps)
	for i := range v {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		v[i] = float64(time.Since(start))
	}
	return time.Duration(median(v)), nil
}

// buildLayers runs the build side stage by stage on a model and on its
// one-machine edit, each stage the median of a few repetitions, with spans
// under one "generate" root per repetition.
func buildLayers(m, edited model, shards int, tr *tracer) (map[string]float64, error) {
	const reps = 5
	out := map[string]float64{}
	opts := codegen.Options{Shards: shards}
	genOpts := codegen.GenOptions{Options: opts}

	var factory *core.Factory
	var in *codegen.Intermediate
	var bundle *codegen.Bundle
	var cache *codegen.Cache
	stages := []struct {
		name string
		fn   func() error
	}{
		{"lexer.scan_ms", func() error {
			toks, errs := lexer.ScanAll("model.sysml", m.text)
			if len(errs) > 0 {
				return errs[0]
			}
			out["lexer.tokens"] = float64(len(toks))
			return nil
		}},
		// ParseFile scans again internally; parser.parse_ms therefore
		// includes a second lexer pass, as sysml2conf.Run's ParseTime does.
		{"parser.parse_ms", func() error { _, err := parser.ParseFile("model.sysml", m.text); return err }},
	}
	file, err := parser.ParseFile("model.sysml", m.text)
	if err != nil {
		return nil, err
	}
	var resolved *sema.Model
	stages = append(stages, []struct {
		name string
		fn   func() error
	}{
		{"sema.resolve_ms", func() (err error) { resolved, err = sema.Resolve(file); return }},
		{"core.extract_ms", func() (err error) { factory, err = core.ExtractFactory(resolved); return }},
		{"codegen.intermediate_ms", func() (err error) { in, err = codegen.BuildIntermediate(factory, opts); return }},
		{"codegen.group_ms", func() error { codegen.Group(in.Machines, opts); return nil }},
		{"codegen.json_ms", func() error { _, err := in.JSONFiles(); return err }},
		{"codegen.generate_ms", func() (err error) {
			cache = codegen.NewCache()
			bundle, err = codegen.GenerateWithCache(factory, genOpts, cache)
			return
		}},
	}...)
	for _, st := range stages {
		id := int64(0)
		d, err := timeMedian(reps, func() error {
			start := time.Now()
			err := st.fn()
			tr.add(id, strings.TrimSuffix(st.name, "_ms"), "", start, time.Now())
			id++
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", st.name, err)
		}
		out[st.name] = ms(d)
	}
	out["codegen.config_kb"] = float64(bundle.Summary.ConfigBytes) / 1024

	// The edit: the front end again, then generation over the warm cache.
	editedFile, err := parser.ParseFile("model.sysml", edited.text)
	if err != nil {
		return nil, err
	}
	editedModel, err := sema.Resolve(editedFile)
	if err != nil {
		return nil, err
	}
	editedFactory, err := core.ExtractFactory(editedModel)
	if err != nil {
		return nil, err
	}
	cold := cache.Stats()
	start := time.Now()
	if _, err := codegen.GenerateWithCache(editedFactory, genOpts, cache); err != nil {
		return nil, err
	}
	out["codegen.regenerate_ms"] = msSince(start)
	warm := cache.Stats()
	if n := warm.Hits - cold.Hits + warm.Misses - cold.Misses; n > 0 {
		out["codegen.cache_hit_ratio"] = float64(warm.Hits-cold.Hits) / float64(n)
	}

	// The emitted manifests, re-read the way the cluster reads them.
	var docs [][]any
	d, err := timeMedian(reps, func() error {
		docs = docs[:0]
		for _, data := range bundle.Manifests {
			parsed, err := yamlenc.UnmarshalDocs(data)
			if err != nil {
				return err
			}
			docs = append(docs, parsed)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["yamlenc.unmarshal_ms"] = ms(d)
	if d, err = timeMedian(reps, func() error {
		for _, parsed := range docs {
			if _, err := yamlenc.MarshalDocs(parsed...); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	out["yamlenc.marshal_ms"] = ms(d)
	if d, err = timeMedian(reps, func() error {
		for _, data := range bundle.Manifests {
			objs, err := k8s.Decode(data)
			if err != nil {
				return err
			}
			if err := k8s.Validate(objs); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	out["k8s.decode_validate_ms"] = ms(d)
	return out, nil
}

// roundTripReps is how many times each isolated round trip is repeated; the
// median is reported.
const roundTripReps = 200

// roundTrips measures the isolated calls a sample or a service call is made
// of, against the live plant: driver protocol, OPC UA, the service channel,
// the broker. It returns the metrics and how many emulator service calls it
// made (the workload's call-count check must expect them).
func (p *plant) roundTrips(tr *tracer) (map[string]float64, int, error) {
	out := map[string]float64{}
	calls := 0
	probe := func(name string, fn func() error) error {
		id := int64(0)
		d, err := timeMedian(roundTripReps, func() error {
			start := time.Now()
			err := fn()
			tr.add(id, strings.TrimSuffix(name, "_us"), "", start, time.Now())
			id++
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		out[name] = us(d)
		return nil
	}

	// A service that takes no arguments, on a machine that has numeric data.
	var m *method
	for i := range p.methods {
		if len(p.methods[i].cfg.Args) == 0 {
			m = &p.methods[i]
			break
		}
	}
	if m == nil {
		return nil, 0, fmt.Errorf("the plant models no argument-free service")
	}
	var s *series
	for i := range p.series {
		if p.series[i].machine == m.machine {
			s = &p.series[i]
			break
		}
	}
	if s == nil {
		s = &p.series[0]
	}

	conn, err := machinesim.DialMachine(s.emu.Addr(), 2*time.Second)
	if err != nil {
		return nil, 0, err
	}
	defer conn.Close()
	if err := probe("machinesim.get_us", func() error { _, err := conn.Get(s.path); return err }); err != nil {
		return nil, 0, err
	}
	mconn, err := machinesim.DialMachine(m.emu.Addr(), 2*time.Second)
	if err != nil {
		return nil, 0, err
	}
	defer mconn.Close()
	if err := probe("machinesim.call_us", func() error { _, err := mconn.Call(m.cfg.Name); return err }); err != nil {
		return nil, 0, err
	}
	calls += roundTripReps

	ua, err := opcua.Dial(p.cluster.Server(s.server).Addr())
	if err != nil {
		return nil, 0, err
	}
	defer ua.Close()
	if err := probe("opcua.read_us", func() error { _, err := ua.Read(opcua.NodeID(s.nodeID)); return err }); err != nil {
		return nil, 0, err
	}
	uaCall := ua
	if m.server != s.server {
		if uaCall, err = opcua.Dial(p.cluster.Server(m.server).Addr()); err != nil {
			return nil, 0, err
		}
		defer uaCall.Close()
	}
	if err := probe("opcua.call_us", func() error { _, err := uaCall.Call(opcua.NodeID(m.cfg.NodeID)); return err }); err != nil {
		return nil, 0, err
	}
	calls += roundTripReps

	bc, err := p.dialBroker(s.shard)
	if err != nil {
		return nil, 0, err
	}
	defer bc.close()
	if err := probe("stack.call_us", func() error { return bc.call(m) }); err != nil {
		return nil, 0, err
	}
	calls += roundTripReps
	out["stack.call_overhead_us"] = out["stack.call_us"] - out["opcua.call_us"]

	// Publish → own subscriber, and the acknowledged publish alone, on a
	// topic of the series' workcell that no plant component produces.
	topic := probeTopic(s.topic)
	got := make(chan struct{}, 1)
	if _, err := bc.consume(topic, "", func(string, []byte) { got <- struct{}{} }); err != nil {
		return nil, 0, err
	}
	payload := []byte(samplePayload(s, 1))
	if err := probe("broker.publish_deliver_us", func() error {
		if err := bc.publish(topic, payload); err != nil {
			return err
		}
		return await(got, 2*time.Second)
	}); err != nil {
		return nil, 0, err
	}
	idle := probeTopic(s.topic) + "/unheard"
	if err := probe("broker.acked_rtt_us", func() error { return bc.publish(idle, payload) }); err != nil {
		return nil, 0, err
	}

	if err := p.crossShard(probe); err != nil {
		return nil, 0, err
	}
	shards := max(p.opts.shards, 4)
	ring := placement.NewRing(shards)
	const lookups = 100000
	start := time.Now()
	sink := 0
	for i := 0; i < lookups; i++ {
		sink += ring.Owner(p.series[i%len(p.series)].workcell)
	}
	out["placement.owner_ns"] = float64(time.Since(start)) / lookups
	if sink < 0 {
		return nil, 0, fmt.Errorf("ring returned a negative shard")
	}
	return out, calls, nil
}

func await(ch <-chan struct{}, timeout time.Duration) error {
	select {
	case <-ch:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("no delivery within %v", timeout)
	}
}

// probeTopic is a topic in the same workcell as a series' topic, under a
// machine name the model does not have.
func probeTopic(seriesTopic string) string {
	parts := strings.Split(seriesTopic, "/")
	return strings.Join(parts[:3], "/") + "/benchprobe/values/p"
}

func samplePayload(s *series, v float64) string {
	return fmt.Sprintf(`{"machine":%q,"variable":%q,"type":"Double","value":%g}`, s.machine, filepath.Base(s.path), v)
}

// crossShard times publish → acked session subscriber on shard 0. On a
// sharded plant the topic belongs to a workcell shard 0 does not own and is
// published at a third shard, so the forward uplink and the bridge pull both
// carry the message; on a singleton broker (or when every workcell landed on
// shard 0) it is the same delivery with no shard to cross, the baseline the
// sharded figure is read against.
func (p *plant) crossShard(probe func(string, func() error) error) error {
	s := &p.series[0]
	for i := range p.series {
		if p.series[i].shard != 0 {
			s = &p.series[i]
			break
		}
	}
	topic := probeTopic(s.topic) + "/crossing" // not the topic roundTrips still listens on
	sub, err := p.dialBroker(0)
	if err != nil {
		return err
	}
	defer sub.close()
	got := make(chan struct{}, 64)
	if _, err := sub.consume(topic, "plantbench-cross-shard", func(string, []byte) { got <- struct{}{} }); err != nil {
		return err
	}
	ingress := 0
	if s.shard != 0 {
		ingress = (s.shard + 1) % p.opts.shards
	}
	pub, err := p.dialBroker(ingress)
	if err != nil {
		return err
	}
	defer pub.close()
	// Messages published before the bridge pull attaches on the owner have
	// no session to queue for: publish until the first one comes through.
	payload := []byte(samplePayload(s, 1))
	attached := false
	for deadline := time.Now().Add(10 * time.Second); !attached && time.Now().Before(deadline); {
		if err := pub.publish(topic, payload); err != nil {
			return err
		}
		attached = await(got, 20*time.Millisecond) == nil
	}
	if !attached {
		return fmt.Errorf("bridge pull for %s never attached", topic)
	}
	for drained := false; !drained; {
		drained = await(got, 50*time.Millisecond) != nil
	}
	return probe("broker.cross_shard_us", func() error {
		if err := pub.publish(topic, payload); err != nil {
			return err
		}
		return await(got, 2*time.Second)
	})
}

// storageLayers feeds scratch stores the workload's own payloads: a
// volatile store, a durable store (then re-opened), and a bare WAL.
func (p *plant) storageLayers(scratch string) (map[string]float64, error) {
	const batch, batches = 256, 40
	out := map[string]float64{}
	samples := make([]historian.Sample, batch)
	for i := range samples {
		s := &p.series[i%len(p.series)]
		samples[i] = historian.Sample{Series: s.topic, Payload: []byte(samplePayload(s, float64(i)))}
	}
	at := time.Now()
	appendAll := func(st *historian.Store) (time.Duration, error) {
		return timeMedian(batches, func() error {
			at = at.Add(time.Millisecond)
			return st.AppendBatch(at, samples)
		})
	}

	d, err := appendAll(historian.NewStore(0))
	if err != nil {
		return nil, err
	}
	out["historian.append_us"] = us(d) / batch

	dir := filepath.Join(scratch, "probe-store")
	st, err := historian.Open(dir, historian.DurableOptions{})
	if err != nil {
		return nil, err
	}
	if d, err = appendAll(st); err != nil {
		st.Close()
		return nil, err
	}
	out["historian.durable_append_us"] = us(d) / batch
	want := st.TotalAppended()
	if err := st.Close(); err != nil {
		return nil, err
	}
	size, err := dirSize(dir)
	if err != nil {
		return nil, err
	}
	out["historian.disk_b_per_sample"] = float64(size) / (batch * batches)
	start := time.Now()
	reopened, err := historian.Open(dir, historian.DurableOptions{})
	if err != nil {
		return nil, err
	}
	out["historian.recover_us_per_sample"] = us(time.Since(start)) / (batch * batches)
	got := recoveredPoints(reopened)
	reopened.Close()
	if got != int(want) {
		return nil, fmt.Errorf("scratch store recovered %d points, had %d", got, want)
	}

	// One WAL record the size of a batch record, fsynced per append.
	log, err := wal.Open(filepath.Join(scratch, "probe-wal"), wal.Options{}, nil)
	if err != nil {
		return nil, err
	}
	var rec []byte
	for _, s := range samples {
		rec = append(rec, s.Series...)
		rec = append(rec, s.Payload...)
	}
	d, err = timeMedian(batches, func() error { _, err := log.Append(rec); return err })
	log.Close()
	if err != nil {
		return nil, err
	}
	out["wal.append_us"] = us(d)
	return out, nil
}

// recoveredPoints counts the points a store holds, series by series.
func recoveredPoints(st *historian.Store) int {
	n := 0
	for _, name := range st.Series() {
		n += st.Count(name)
	}
	return n
}

func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// reopen re-opens one durable historian directory of a plant that has been
// shut down — snapshot restore plus WAL replay — and returns how long Open
// took and how many points it recovered.
func (p *plant) reopen(name string) (time.Duration, int, error) {
	start := time.Now()
	st, err := historian.Open(filepath.Join(p.dataDir, name), historian.DurableOptions{})
	if err != nil {
		return 0, 0, fmt.Errorf("recover %s: %w", name, err)
	}
	took := time.Since(start)
	points := recoveredPoints(st)
	return took, points, st.Close()
}

// storedPoints counts the points each live historian holds.
func (p *plant) storedPoints() map[string]int {
	counts := map[string]int{}
	for _, name := range p.cluster.Historians() {
		if h := p.cluster.Historian(name); h != nil {
			counts[name] = recoveredPoints(h.Store)
		}
	}
	return counts
}

// queryLayers times the query tier on the live server: direct Aggregate on
// windows never asked for (miss) and asked again (hit), and the same cached
// query over HTTP.
func (p *plant) queryLayers() (map[string]float64, error) {
	out := map[string]float64{}
	qs := p.cluster.QueryServer()
	to := time.Now().Add(-2 * time.Second).Truncate(time.Second)
	from := to.Add(-58 * time.Second)
	n := min(len(p.series), 64)
	pass := func() (time.Duration, error) {
		i := 0
		return timeMedian(n, func() error {
			s := &p.series[i]
			i++
			_, err := qs.Aggregate(s.store, s.topic, from, to, time.Second)
			return err
		})
	}
	miss, err := pass()
	if err != nil {
		return nil, err
	}
	hit, err := pass()
	if err != nil {
		return nil, err
	}
	out["historian.query_miss_us"], out["historian.query_hit_us"] = us(miss), us(hit)

	client := newHTTPClient()
	defer client.CloseIdleConnections()
	i := 0
	over, err := timeMedian(n, func() error {
		_, _, err := p.aggregateCount(client, i, from, to)
		i++
		return err
	})
	if err != nil {
		return nil, err
	}
	out["historian.http_overhead_us"] = us(over - hit)
	hits, misses := qs.CacheStats()
	out["historian.cache_hit_ratio"] = 0
	if hits+misses > 0 {
		out["historian.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	return out, nil
}

// stampProbe writes one value at a time into a reserved series and taps it
// at every hop — the data change at a harness-owned OPC UA client, the
// broker delivery, the historian — until stop closes. It runs beside the
// workload's load, so the hops are measured under that load.
type stampProbe struct {
	pollNotify, bridgeBroker, ingest, total dist
	done                                    chan struct{}
	err                                     error
}

type tapped struct {
	v  float64
	at time.Time
}

func (p *plant) startStampProbe(i int, seed int64, tr *tracer, stop <-chan struct{}) (*stampProbe, error) {
	s := &p.series[i]
	sp := &stampProbe{done: make(chan struct{})}
	ua, err := opcua.Dial(p.cluster.Server(s.server).Addr())
	if err != nil {
		return nil, err
	}
	_, changes, err := ua.Subscribe(opcua.NodeID(s.nodeID))
	if err != nil {
		ua.Close()
		return nil, err
	}
	bc, err := p.dialBroker(s.shard)
	if err != nil {
		ua.Close()
		return nil, err
	}
	// Sized to the one stamp in flight plus the poke that may precede it.
	delivered := make(chan tapped, 4)
	if _, err := bc.consume(s.topic, "", func(_ string, payload []byte) {
		if v, ok := sampleValue(payload); ok {
			select {
			case delivered <- tapped{v, time.Now()}:
			default:
			}
		}
	}); err != nil {
		ua.Close()
		bc.close()
		return nil, err
	}
	go func() {
		defer close(sp.done)
		defer ua.Close()
		defer bc.close()
		jitter := newJitter(seed)
		for v := float64(stampBase); ; v++ {
			select {
			case <-stop:
				return
			case <-time.After(jitter.between(5*time.Millisecond, 40*time.Millisecond)):
			}
			set := time.Now()
			if err := p.set(i, v); err != nil {
				sp.err = err
				return
			}
			var tap, broker time.Time
			timeout := time.After(5 * time.Second)
			for tap.IsZero() || broker.IsZero() {
				select {
				case ch, ok := <-changes:
					if !ok {
						sp.err = fmt.Errorf("stamp probe: OPC UA connection lost")
						return
					}
					if ch.Value.AsFloat() == v {
						tap = time.Now()
					}
				case d := <-delivered:
					if d.v == v {
						broker = d.at
					}
				case <-timeout:
					sp.err = fmt.Errorf("stamp probe: value %g on %s not seen at every hop within 5s", v, s.topic)
					return
				case <-stop:
					return
				}
			}
			for {
				if got, ok := p.latest(i); ok && got == v {
					break
				}
				if time.Since(set) > 5*time.Second {
					sp.err = fmt.Errorf("stamp probe: value %g on %s never reached the historian", v, s.topic)
					return
				}
				time.Sleep(100 * time.Microsecond)
			}
			stored := time.Now()
			sp.pollNotify.add(ms(tap.Sub(set)))
			sp.bridgeBroker.add(ms(broker.Sub(tap)))
			sp.ingest.add(ms(stored.Sub(broker)))
			sp.total.add(ms(stored.Sub(set)))
			id := int64(v)
			tr.add(id, "sample", "", set, stored)
			tr.add(id, "stack.poll_notify", "sample", set, tap)
			tr.add(id, "stack.bridge_broker", "sample", tap, broker)
			tr.add(id, "historian.ingest", "sample", broker, stored)
		}
	}()
	return sp, nil
}

// layerProbes runs every probe of a traced run against the live plant and
// reports the per-layer metrics. sp is the stamp probe that ran beside the
// load; nil runs one now, on the idle plant. It returns the emulator
// service calls the probes made.
func (r *run) layerProbes(p *plant, sp *stampProbe) (int, error) {
	if sp == nil {
		stop := make(chan struct{})
		var err error
		if sp, err = p.startStampProbe(len(p.series)-1, r.cfg.seed, r.tr, stop); err != nil {
			return 0, err
		}
		time.Sleep(1500 * time.Millisecond)
		close(stop)
		<-sp.done
	}
	if sp.err != nil {
		r.failf("%v", sp.err)
	}
	if sp.total.n() == 0 {
		return 0, fmt.Errorf("the stamp probe completed no sample")
	}
	r.pass(sp.total.n())
	r.set("stack.poll_notify_p50_ms", sp.pollNotify.quantile(0.5))
	r.set("stack.bridge_broker_p50_ms", sp.bridgeBroker.quantile(0.5))
	r.set("historian.ingest_lag_p50_ms", sp.ingest.quantile(0.5))
	r.observe("stack.poll_notify_ms", &sp.pollNotify, "ms")
	r.observe("stack.bridge_broker_ms", &sp.bridgeBroker, "ms")
	r.observe("historian.ingest_lag_ms", &sp.ingest, "ms")

	edited, _, _ := p.model.withClonedAGV(r.rng)
	layers, err := buildLayers(p.model, edited, p.opts.shards, r.tr)
	if err != nil {
		return 0, err
	}
	r.setAll(layers)
	trips, calls, err := p.roundTrips(r.tr)
	if err != nil {
		return 0, err
	}
	r.setAll(trips)
	if layers, err = p.storageLayers(r.scratch); err != nil {
		return 0, err
	}
	r.setAll(layers)
	if layers, err = p.queryLayers(); err != nil {
		return 0, err
	}
	r.setAll(layers)

	camp, err := p.runCampaign(fmt.Sprintf("plantbench-probe-%d", r.cfg.seed), 20)
	if err != nil {
		return 0, err
	}
	for _, msg := range camp.problems {
		r.failf("%s", msg)
	}
	r.pass(1)
	calls += camp.steps
	r.set("ops.compile_ms", camp.compileMS)
	r.set("ops.step_us", camp.runMS*1000/float64(max(camp.steps, 1)))
	r.set("ops.audit_ms", camp.auditMS)
	r.set("ops.campaign_steps_per_s", float64(camp.steps)/(camp.runMS/1000))
	r.set("ops.flush_resumes", 0)
	if camp.resumed {
		r.set("ops.flush_resumes", 1)
	}
	return calls, nil
}
