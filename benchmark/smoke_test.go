package main

import (
	"math"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload once, traced, for one second with
// every check on: a traced run measures both tables, so it must report every
// metric BENCHMARK.json names, finite, with no failed operation. The four
// run in parallel to keep the file short; nothing here looks at how fast
// anything was.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			cfg := config{workload: w.name, seed: 7, seconds: 1, trace: true, outDir: t.TempDir()}
			rec, err := execute(cfg, w.run)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%d of %d operations failed: %v", rec.Failed, rec.Attempted, rec.Notes)
			}
			for _, defs := range [][]metricDef{endToEnd, perLayer} {
				for _, d := range defs {
					m, ok := rec.Metrics[d.name]
					if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s missing or not finite: %+v", d.name, m)
					}
					if m.Unit != d.unit {
						t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
					}
				}
			}
			for _, d := range endToEnd {
				if rec.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, rec.Metrics[d.name].Value)
				}
			}
			if len(rec.SelfTimes) == 0 {
				t.Error("traced run recorded no span")
			}
		})
	}
}

// TestBenchmarkFileMatchesTables pins BENCHMARK.json to the harness: the
// same workloads, and the same metric names, units and directions as the
// tables in metrics.go.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, bf.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, listed []gated, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			g := listed[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the harness %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	for _, g := range bf.EndToEnd {
		if g.Bound <= 0 || g.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", g.Name, g.Bound)
		}
	}
}

// syntheticRuns builds n untraced operations records whose latency_p50_ms is
// base·(1 ± 1 %) alternating, every other metric fixed.
func syntheticRuns(n int, base float64) []record {
	out := make([]record, n)
	for i := range out {
		wobble := 1 + 0.01*float64(i%2*2-1)
		m := map[string]metric{}
		for _, d := range endToEnd {
			m[d.name] = metric{100, d.unit}
		}
		m["latency_p50_ms"] = metric{base * wobble, "ms"}
		out[i] = record{Workload: "operations", Attempted: 1000, Metrics: m}
	}
	return out
}

func TestJudge(t *testing.T) {
	bf := &benchmarkFile{
		Workloads: []workloadDef{{Name: "operations"}},
		EndToEnd:  []gated{{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}},
	}
	find := func(vs []verdict) verdict {
		if len(vs) != 1 {
			t.Fatalf("got %d verdicts, want 1", len(vs))
		}
		return vs[0]
	}
	a := syntheticRuns(10, 1.00)
	if v := find(judge(bf, a, syntheticRuns(10, 1.00))); v.regression != withinBnd || v.gain != unresolved {
		t.Errorf("A/A: %s, %s; want within bound, unresolved", v.regression, v.gain)
	}
	if v := find(judge(bf, a, syntheticRuns(10, 1.06))); v.regression != withinBnd || v.gain != worsened {
		t.Errorf("+6%%: %s, %s; want within bound, worse", v.regression, v.gain)
	}
	if v := find(judge(bf, a, syntheticRuns(10, 1.20))); v.regression != regressed {
		t.Errorf("+20%%: %s; want REGRESSED", v.regression)
	}
	if v := find(judge(bf, a, syntheticRuns(10, 0.90))); v.regression != withinBnd || v.gain != improved {
		t.Errorf("-10%%: %s, %s; want within bound, improved", v.regression, v.gain)
	}
	if v := find(judge(bf, a, syntheticRuns(4, 0.90))); v.gain != unresolved {
		t.Errorf("4 pairs: gain %s; want unresolved", v.gain)
	}
	noisy := syntheticRuns(10, 1.00)
	for i := range noisy {
		noisy[i].Metrics["latency_p50_ms"] = metric{1 + 0.3*float64(i%3), "ms"}
	}
	if v := find(judge(bf, a, noisy)); v.regression != unresolved {
		t.Errorf("spread wider than the bound: %s; want unresolved", v.regression)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	tr.add(1, "round", "", at(0), at(100))
	tr.add(1, "generate", "round", at(0), at(30))
	tr.add(1, "apply", "round", at(20), at(60)) // overlaps generate by 10 ms
	tr.add(2, "apply", "round", at(0), at(50))  // another id: not round 1's child
	for _, st := range tr.selfTimes() {
		if st.Name == "round" && (st.TotalMS != 100 || st.SelfMS != 40) {
			t.Errorf("round: total %v self %v, want 100 and 40", st.TotalMS, st.SelfMS)
		}
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	var d dist
	for i := 0; i < 1000; i++ {
		d.add(float64(i))
	}
	if s := d.summary("ms"); s.HighestPct != 99 || s.SamplesBeyond != 10 {
		t.Errorf("1000 samples: p%v with %d beyond, want p99 with 10", s.HighestPct, s.SamplesBeyond)
	}
	d = dist{}
	for i := 0; i < 15; i++ {
		d.add(float64(i))
	}
	if s := d.summary("ms"); s.HighestPct != 0 {
		t.Errorf("15 samples: p%v, want none supported", s.HighestPct)
	}
}
