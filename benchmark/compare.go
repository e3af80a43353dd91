package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// benchmarkFile is BENCHMARK.json as far as compare needs it.
type benchmarkFile struct {
	Workloads []workloadDef `json:"workloads"`
	EndToEnd  []gated       `json:"end_to_end"`
	PerLayer  []gated       `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type gated struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// readBenchmarkFile finds BENCHMARK.json in the working directory or its
// parent (the harness is run from the repository root or from benchmark/).
func readBenchmarkFile() (*benchmarkFile, error) {
	var data []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if data, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// verdict is compare's judgement of one end-to-end metric on one workload.
type verdict struct {
	workload, metric, unit string
	a, b                   quartiles
	pairs, wins, losses    int
	worsePct               float64 // B's median against A's, positive = worse
	bound                  float64
	regression, gain       string
}

type quartiles struct{ q1, med, q3 float64 }

func quartilesOf(v []float64) quartiles {
	s := sortedCopy(v)
	return quartiles{quantileOf(s, 0.25), quantileOf(s, 0.5), quantileOf(s, 0.75)}
}

// designed are the layer metrics that were designed as end-to-end metrics and
// do not repeat within any allowed bound on this host (README, "Designed as
// end-to-end"): judge reports them after the gated ones, by the paired-runs
// rule alone.
var designed = []string{"latency_p50_ms", "followup_p50_ms", "cpu_ms_per_op", "throughput_per_s"}

// Verdicts on the regression question and on the gain question.
const (
	regressed  = "REGRESSED"    // median worse than the bound allows, spread within the bound
	withinBnd  = "within bound" // median no worse than the bound allows
	notGated   = "not gated"    // a designed metric without a bound
	unresolved = "unresolved"   // the runs' own spread is wider than the question asked of them
	improved   = "improved"     // wins >= 9/10 of >= 10 pairs, medians apart by more than A's quartile distance
	worsened   = "worse"        // the same rule, lost
)

// judge applies each metric's bound and direction to the untraced runs of A
// (the parent) and B (the change), workload by workload.
//
// Regression: B's median may be worse than A's by at most the bound. If the
// distance between the quartiles of either side is wider than the bound the
// answer is unresolved — unless every run of B is better than every run of A.
//
// Gain (or loss): with at least ten pairs, B improved if it wins at least
// nine tenths of the decided pairs and the medians differ by more than the
// distance between A's quartiles; the mirror image is "worse". Anything else
// is unresolved: it is never reported as unchanged.
func judge(bf *benchmarkFile, a, b []record) []verdict {
	metrics := append([]gated(nil), bf.EndToEnd...)
	for _, g := range bf.PerLayer {
		for _, name := range designed {
			if g.Name == name {
				metrics = append(metrics, g) // Bound is 0
			}
		}
	}
	var out []verdict
	for _, w := range bf.Workloads {
		ra, rb := untraced(a, w.Name), untraced(b, w.Name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, g := range metrics {
			sign := 1.0 // multiply so that larger is always worse
			if g.Better == "higher" {
				sign = -1
			}
			va, vb := values(ra, g.Name), values(rb, g.Name)
			v := verdict{workload: w.Name, metric: g.Name, unit: g.Unit, bound: g.Bound, a: quartilesOf(va), b: quartilesOf(vb)}
			v.pairs = min(len(va), len(vb))
			for i := 0; i < v.pairs; i++ {
				switch d := sign * (vb[i] - va[i]); {
				case d < 0:
					v.wins++
				case d > 0:
					v.losses++
				}
			}
			base := v.a.med
			if base == 0 {
				base = 1
			}
			v.worsePct = sign * (v.b.med - v.a.med) / base * 100
			spread := max(v.a.q3-v.a.q1, v.b.q3-v.b.q1) / base
			allBetter := true
			for _, x := range vb {
				for _, y := range va {
					allBetter = allBetter && sign*(x-y) < 0
				}
			}
			switch {
			case g.Bound == 0:
				v.regression = notGated
			case spread > g.Bound && !allBetter:
				v.regression = unresolved
			case v.worsePct > g.Bound*100:
				v.regression = regressed
			default:
				v.regression = withinBnd
			}
			better := sign*(v.b.med-v.a.med) < 0
			far := math.Abs(v.b.med-v.a.med) > v.a.q3-v.a.q1
			decided := float64(v.wins + v.losses)
			switch {
			case v.pairs < 10:
				v.gain = unresolved
			case far && better && float64(v.wins) >= 0.9*decided:
				v.gain = improved
			case far && !better && float64(v.losses) >= 0.9*decided:
				v.gain = worsened
			default:
				v.gain = unresolved
			}
			out = append(out, v)
		}
	}
	return out
}

func untraced(recs []record, workload string) []record {
	var out []record
	for _, r := range recs {
		if !r.Trace && r.Workload == workload {
			out = append(out, r)
		}
	}
	return out
}

func values(recs []record, name string) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = r.Metrics[name].Value
	}
	return out
}

func failures(recs []record) (failed, attempted int64) {
	for _, r := range recs {
		if !r.Trace {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return
}

// printVerdicts writes one row per workload and metric and reports whether
// anything regressed.
func printVerdicts(vs []verdict, a, b []record) (bad bool) {
	fmt.Printf("%-11s %-17s %5s %12s %12s %9s %7s  %-13s %-11s %s\n",
		"workload", "metric", "pairs", "A median", "B median", "B worse", "bound", "regression", "gain/loss", "A q1..q3 | B q1..q3")
	for _, v := range vs {
		fmt.Printf("%-11s %-17s %5d %12.4f %12.4f %+8.2f%% %6.0f%%  %-13s %-11s %.4g..%.4g | %.4g..%.4g %s  (B won %d, lost %d)\n",
			v.workload, v.metric, v.pairs, v.a.med, v.b.med, v.worsePct, v.bound*100, v.regression, v.gain,
			v.a.q1, v.a.q3, v.b.q1, v.b.q3, v.unit, v.wins, v.losses)
		bad = bad || v.regression == regressed
	}
	fa, na := failures(a)
	fb, nb := failures(b)
	fmt.Printf("failed operations: A %d of %d, B %d of %d\n", fa, na, fb, nb)
	if nb > 0 && na > 0 && float64(fb)/float64(nb) > float64(fa)/float64(na) {
		fmt.Println("REGRESSED: more operations fail in B than in A")
		bad = true
	}
	return bad
}

// compareMain is `plantbench compare A.jsonl B.jsonl`: exit 1 when a metric
// regressed beyond its bound or B fails more operations than A.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: plantbench compare A.jsonl B.jsonl   (A: the parent's run records, B: the change's)")
		return 2
	}
	bf, err := readBenchmarkFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "plantbench:", err)
		return 2
	}
	a, err := readRecords(args[0])
	if err == nil {
		var b []record
		if b, err = readRecords(args[1]); err == nil {
			if printVerdicts(judge(bf, a, b), a, b) {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "plantbench:", err)
	return 2
}

// selftestMain checks compare against itself on the operations workload: ten
// alternating triples of runs — A and A' on the code as it is, C with a 25 µs
// delay planted in every emulator service call through the fixture hook
// Machine.SetCallDelay. A against A' must show no regression and no resolved
// gain or loss; A against C must come out worse on latency_p50_ms by the
// paired-runs rule (the metric has no bound to regress against).
func selftestMain(cfg config) int {
	bf, err := readBenchmarkFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "plantbench:", err)
		return 2
	}
	cfg.workload, cfg.trace = "operations", false
	var a, a2, c []record
	for i := 0; i < 10; i++ {
		cfg.seed = int64(i + 1)
		for _, side := range rotate(i) {
			run := cfg
			if side == 2 {
				run.callDelay = 25 * time.Microsecond
			}
			rec, err := execute(run, runOperations)
			if err != nil {
				fmt.Fprintln(os.Stderr, "plantbench: selftest:", err)
				return 2
			}
			fmt.Printf("pair %2d %s latency_p50_ms=%.4f throughput_per_s=%.1f failed=%d\n",
				i+1, [...]string{"A ", "A'", "C "}[side], rec.Metrics["latency_p50_ms"].Value, rec.Metrics["throughput_per_s"].Value, rec.Failed)
			switch side {
			case 0:
				a = append(a, *rec)
			case 1:
				a2 = append(a2, *rec)
			default:
				c = append(c, *rec)
			}
		}
	}
	ok := true
	fmt.Println("\nA against A' (same code):")
	aa := judge(bf, a, a2)
	if printVerdicts(aa, a, a2) {
		ok = false
	}
	for _, v := range aa {
		if v.gain != unresolved {
			fmt.Printf("selftest: FAIL: A/A' resolved a %s on %s\n", v.gain, v.metric)
			ok = false
		}
	}
	fmt.Println("\nA against C (25 µs planted in every service call):")
	flagged := false
	ac := judge(bf, a, c)
	printVerdicts(ac, a, c)
	for _, v := range ac {
		if v.metric == "latency_p50_ms" && (v.regression == regressed || v.gain == worsened) {
			flagged = true
		}
	}
	if !flagged {
		fmt.Println("selftest: FAIL: the planted delay was not flagged on latency_p50_ms")
		ok = false
	}
	if ok {
		fmt.Println("selftest: PASS: A/A' shows nothing, the planted delay is flagged")
		return 0
	}
	return 1
}

// rotate returns the order the three sides run in for pair i, so that no
// side always runs first.
func rotate(i int) [3]int {
	return [3]int{i % 3, (i + 1) % 3, (i + 2) % 3}
}
