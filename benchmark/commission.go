package main

import (
	"fmt"
	"runtime"
	"time"
)

// setupReps is how many times a run-side workload commissions its plant:
// all but the last are torn down again, and setup_s is the median.
const setupReps = 5

var commissionOpts = plantOpts{scale: 2, poll: 20 * time.Millisecond}

// roundTimes is what one commission round reports per layer.
type roundTimes struct {
	prepare  float64 // s: building the round's model text (the workload's set-up)
	setup    setupTimes
	edit     editTimes
	allocMB  float64
	shutdown float64
	pods     int
}

// commissionRound is Fig. 1 once: a model never seen before → bundle →
// deployed plant → every machine answers over /range → one-machine edit →
// incremental pass + Reconfigure → the new machine answers → shutdown.
// Failed checks are counted on r; an error means the round broke down.
func commissionRound(r *run, opts plantOpts, id int64, query *dist) (roundTimes, error) {
	var rt roundTimes
	// The previous round's plant is garbage by now, an artefact of the
	// closed loop: a user commissions from a fresh process, so the round
	// starts on a collected heap.
	runtime.GC()
	start := time.Now()
	m := newModel(opts.scale, fmt.Sprintf("T%04x", r.rng.Intn(1<<16)), r.rng)
	edited, orig, clone := m.withClonedAGV(r.rng)
	rt.prepare = time.Since(start).Seconds()

	p, err := commission(m, opts, r.scratch, query, r.tr, id)
	if err != nil {
		return rt, err
	}
	defer p.removeData()
	rt.setup, rt.allocMB, rt.pods = p.times, p.build.allocMB, p.pods()
	r.checkBundle(p, m)

	rt.edit, err = p.edit(edited, orig, clone, query, r.tr, id)
	if err != nil {
		p.shutdown()
		return rt, err
	}
	r.checkBundle(p, edited)

	down := time.Now()
	p.shutdown()
	rt.shutdown = msSince(down)
	r.tr.add(id, "deploy.shutdown", "", down, time.Now())
	return rt, nil
}

// checkBundle counts one check per bundle: every manifest decodes and
// validates and configures exactly what the spec describes.
func (r *run) checkBundle(p *plant, m model) {
	problems := checkBundle(p.build.bundle, m.counts())
	if len(problems) == 0 {
		r.pass(1)
		return
	}
	for _, msg := range problems {
		r.failf("%s", msg)
	}
}

// runCommission is the closed loop with one caller: rounds until the time is
// up. The build side and deploy do all the work; the data plane idles.
func runCommission(r *run) error {
	var query, commissionMS, editMS, prepare, answerable dist
	var rounds []roundTimes
	// Two rounds to warm the process (page faults, first TCP accepts)
	// before anything is timed.
	for i := 0; i < 2; i++ {
		if _, err := commissionRound(r, commissionOpts, int64(-1-i), &dist{}); err != nil {
			return err
		}
	}
	win := openWindow()
	deadline := win.start.Add(time.Duration(r.cfg.seconds * float64(time.Second)))
	for id := int64(0); time.Now().Before(deadline) || len(rounds) == 0; id++ {
		rt, err := commissionRound(r, commissionOpts, id, &query)
		if err != nil {
			r.failf("round %d: %v", id, err)
			continue
		}
		r.pass(2) // the plant answered; the edited plant answered
		rounds = append(rounds, rt)
		commissionMS.add(rt.setup.total)
		editMS.add(rt.edit.total)
		prepare.add(rt.prepare)
		answerable.add(rt.setup.firstSample)
	}
	win.close(r, len(rounds))
	if len(rounds) == 0 {
		return fmt.Errorf("no round completed")
	}

	r.set("setup_s", prepare.quantile(0.5))
	// The age at which a value becomes queryable is, on this workload, the
	// plant's first: poked into every machine when apply returns, until the
	// last of them shows over /range.
	if err := r.report(timings{latency: &commissionMS, followup: &editMS, query: &query, queryable: &answerable}); err != nil {
		return err
	}
	r.reportRounds(rounds)

	if r.cfg.trace {
		// The per-layer probes need a live plant; commission keeps none, so
		// it brings one more up after the window.
		m := newModel(commissionOpts.scale, "Tprobe", r.rng)
		p, err := commission(m, commissionOpts, r.scratch, &dist{}, nil, 0)
		if err != nil {
			return err
		}
		defer p.shutdown()
		_, err = r.layerProbes(p, nil)
		return err
	}
	return nil
}

// reportRounds turns the per-round (or per-set-up) breakdowns into the
// deployment layer metrics, each the median over the rounds that did the
// step (the set-up a workload keeps is neither edited nor shut down).
func (r *run) reportRounds(rounds []roundTimes) {
	med := func(f func(roundTimes) float64) float64 {
		var v []float64
		for _, rt := range rounds {
			if x := f(rt); x != 0 {
				v = append(v, x)
			}
		}
		return median(v)
	}
	r.set("generate_ms", med(func(rt roundTimes) float64 { return rt.setup.generate }))
	r.set("generate_alloc_mb", med(func(rt roundTimes) float64 { return rt.allocMB }))
	r.set("machinesim.fleet_start_ms", med(func(rt roundTimes) float64 { return rt.setup.fleet }))
	r.set("deploy.apply_ms", med(func(rt roundTimes) float64 { return rt.setup.apply }))
	r.set("deploy.first_sample_ms", med(func(rt roundTimes) float64 { return rt.setup.firstSample }))
	r.set("deploy.reconfigure_ms", med(func(rt roundTimes) float64 { return rt.edit.reconfigure }))
	r.set("deploy.shutdown_ms", med(func(rt roundTimes) float64 { return rt.shutdown }))
	r.set("deploy.pods", med(func(rt roundTimes) float64 { return float64(rt.pods) }))
}

// timings are the distributions a workload measured: its operation, its
// follow-up operation, its historian queries, the age at which a value
// written at a machine becomes queryable and, on a workload with an open-loop
// generator, how late that ran.
type timings struct {
	latency, followup, query, queryable *dist
	late                                *dist // nil on a closed loop
}

// report turns a workload's distributions into its latency metrics: the two
// gated medians, the medians that do not repeat well enough on this host to
// gate, the tails and generator lateness, with the sample counts behind
// them. A distribution that stayed empty is an error: the run measured
// nothing.
func (r *run) report(t timings) error {
	named := []struct {
		name string
		d    *dist
	}{
		{"latency_ms", t.latency}, {"followup_ms", t.followup}, {"query_ms", t.query},
		{"queryable_age_ms", t.queryable}, {"stamper.late_ms", t.late},
	}
	for _, n := range named {
		if n.d == nil {
			continue
		}
		if n.d.n() == 0 {
			return fmt.Errorf("nothing measured for %s", n.name)
		}
		r.observe(n.name, n.d, "ms")
	}
	r.set("latency_p50_ms", t.latency.quantile(0.5))
	r.set("latency_p90_ms", t.latency.quantile(0.9))
	r.set("latency_p99_ms", t.latency.quantile(0.99))
	r.set("latency_max_ms", t.latency.quantile(1))
	r.set("followup_p50_ms", t.followup.quantile(0.5))
	r.set("followup_p90_ms", t.followup.quantile(0.9))
	r.set("query_p50_ms", t.query.quantile(0.5))
	r.set("query_p99_ms", t.query.quantile(0.99))
	r.set("queryable_age_p50_ms", t.queryable.quantile(0.5))
	return nil
}

// setUp commissions a run-side workload's plant setupReps times — every
// time but the last as a whole commission round, edit and shutdown included
// — and keeps the last plant. It reports setup_s (the median time from
// nothing to every machine answering) and the deployment layer metrics.
func (r *run) setUp(opts plantOpts) (*plant, error) {
	var rounds []roundTimes
	var totals []float64
	for i := 0; i < setupReps-1; i++ {
		rt, err := commissionRound(r, opts, int64(-1-i), &dist{})
		if err != nil {
			return nil, err
		}
		r.pass(2)
		rounds = append(rounds, rt)
		totals = append(totals, rt.prepare+rt.setup.total/1000)
	}
	start := time.Now()
	m := newModel(opts.scale, "", r.rng)
	prepare := time.Since(start).Seconds()
	p, err := commission(m, opts, r.scratch, &dist{}, r.tr, 0)
	if err != nil {
		return nil, err
	}
	r.checkBundle(p, m)
	r.pass(1)
	rounds = append(rounds, roundTimes{prepare: prepare, setup: p.times, allocMB: p.build.allocMB, pods: p.pods()})
	totals = append(totals, prepare+p.times.total/1000)
	r.set("setup_s", median(totals))
	r.reportRounds(rounds)
	return p, nil
}
