// Command plantbench is the repository's benchmark: four workloads that drive
// the whole model → plant pipeline through the packages' public functions
// from one process, report end-to-end metrics (-trace 0) or per-layer metrics
// (-trace 1), check that what the plant produced is correct, and exit
// non-zero when a check fails. BENCHMARK.json at the repository root
// describes it; README.md in this directory defines every metric.
//
//	plantbench -workload telemetry -seed 1 -seconds 15 -trace 0
//	plantbench compare A.jsonl B.jsonl
//	plantbench -selftest
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// config is one run's command line.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	outDir    string
	callDelay time.Duration // selftest only: delay planted in every emulator service call
}

// workloads maps each name to its implementation, in the order -workload all
// runs them.
var workloads = []struct {
	name string
	run  func(*run) error
}{
	{"commission", runCommission},
	{"telemetry", runTelemetry},
	{"firehose", runFirehose},
	{"operations", runOperations},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var cfg config
	var trace int
	var selftest bool
	flag.StringVar(&cfg.workload, "workload", "all", "commission, telemetry, firehose, operations or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1: the traced run — per-layer probes and spans, per-layer metrics on the result line")
	flag.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "out"), "directory for run records, span files and scratch data")
	flag.BoolVar(&selftest, "selftest", false, "check that compare passes A/A and flags a planted 25µs service-call delay")
	flag.Parse()
	cfg.trace = trace != 0
	if flag.NArg() > 0 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: plantbench [-workload W] [-seed N] [-seconds S] [-trace 0|1] | compare A B | -selftest")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatal(err)
	}
	if selftest {
		os.Exit(selftestMain(cfg))
	}
	records := filepath.Join(cfg.outDir, "runs.jsonl")
	ok := true
	ran := false
	for _, w := range workloads {
		if cfg.workload != "all" && cfg.workload != w.name {
			continue
		}
		ran = true
		c := cfg
		c.workload = w.name
		rec, err := execute(c, w.run)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		var earlier []record
		if rec.Trace {
			earlier, _ = readRecords(records) // none yet is fine
		}
		rec.print(os.Stdout, earlier)
		if err := appendRecord(records, rec); err != nil {
			fatal(err)
		}
		ok = ok && rec.Failed == 0
	}
	if !ran {
		fatal(fmt.Errorf("unknown workload %q", cfg.workload))
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "plantbench:", err)
	os.Exit(1)
}

// run is the state of one workload run: its inputs, the failure tally, and
// the metrics and distributions it has reported so far.
type run struct {
	cfg     config
	rng     *rand.Rand
	tr      *tracer // nil on an untraced run
	scratch string  // removed when the run ends

	mu        sync.Mutex
	attempted int64
	failed    int64
	notes     []string
	metrics   map[string]float64
	dists     map[string]distSummary
}

// pass counts n operations that were attempted and checked correct.
func (r *run) pass(n int) {
	r.mu.Lock()
	r.attempted += int64(n)
	r.mu.Unlock()
}

// failf counts one operation that failed a check; the first few reasons are
// kept for the record.
func (r *run) failf(format string, args ...any) {
	r.mu.Lock()
	r.attempted++
	r.failed++
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

func (r *run) set(name string, v float64) {
	r.mu.Lock()
	r.metrics[name] = v
	r.mu.Unlock()
}

// setAll reports a map of metrics (the per-layer probes return these).
func (r *run) setAll(m map[string]float64) {
	for k, v := range m {
		r.set(k, v)
	}
}

// observe reports a distribution's summary under name (the sample counts a
// record keeps behind every percentile).
func (r *run) observe(name string, d *dist, unit string) {
	r.mu.Lock()
	r.dists[name] = d.summary(unit)
	r.mu.Unlock()
}

// window measures the process over the workload's measured window: wall
// time, CPU time, allocation and read/write system calls, which every
// workload turns into the per-operation costs and throughput_per_s.
type window struct {
	start time.Time
	cpu   time.Duration
	mem   runtime.MemStats
	io    procIO
}

// procIO is what /proc/self/io counts for the process: bytes moved through
// read and write system calls (sockets and files alike), and those calls.
type procIO struct {
	bytes, calls uint64
	err          error
}

func readProcIO() procIO {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return procIO{err: err}
	}
	var io procIO
	for _, line := range strings.Split(string(data), "\n") {
		k, v, _ := strings.Cut(line, ": ")
		n, _ := strconv.ParseUint(v, 10, 64)
		switch k {
		case "rchar", "wchar":
			io.bytes += n
		case "syscr", "syscw":
			io.calls += n
		}
	}
	return io
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func openWindow() *window {
	w := &window{}
	// Every window opens on a freshly collected heap, whatever garbage the
	// set-up left behind: the collector's pacing starts from the same place.
	runtime.GC()
	runtime.ReadMemStats(&w.mem)
	w.io = readProcIO()
	w.cpu = cpuTime()
	w.start = time.Now()
	return w
}

// close reports the window's metrics for ops completed operations.
func (w *window) close(r *run, ops int) {
	wall := time.Since(w.start)
	cpu := cpuTime() - w.cpu
	io := readProcIO()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	n := math.Max(float64(ops), 1)
	if io.err == nil && w.io.err == nil { // left unset, the run fails: the metrics were not measured
		r.set("io_kb_per_op", float64(io.bytes-w.io.bytes)/1024/n)
		r.set("syscalls_per_op", float64(io.calls-w.io.calls)/n)
	}
	r.set("throughput_per_s", float64(ops)/wall.Seconds())
	r.set("cpu_ms_per_op", ms(cpu)/n)
	r.set("alloc_kb_per_op", float64(mem.TotalAlloc-w.mem.TotalAlloc)/1024/n)
	r.set("plant_cpu_cores", cpu.Seconds()/wall.Seconds())
	r.set("allocs_per_op", float64(mem.Mallocs-w.mem.Mallocs)/n)
	r.set("go.gc_pause_ms", float64(mem.PauseTotalNs-w.mem.PauseTotalNs)/1e6)
	r.set("go.heap_peak_mb", float64(mem.HeapSys)/(1<<20))
}

// record is one run as written to runs.jsonl and read back by compare.
type record struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Trace      bool                   `json:"trace"`
	Commit     string                 `json:"commit"`
	When       string                 `json:"when"`
	NProc      int                    `json:"nproc"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	GoVersion  string                 `json:"go_version"`
	CPUModel   string                 `json:"cpu_model"`
	WallS      float64                `json:"wall_s"`
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	Notes      []string               `json:"notes,omitempty"`
	Metrics    map[string]metric      `json:"metrics"`
	Dists      map[string]distSummary `json:"distributions"`
	SelfTimes  []selfTime             `json:"self_times,omitempty"`
}

// execute runs one workload and assembles its record. An error means the run
// could not produce its metrics at all; failed checks are in the record.
func execute(cfg config, fn func(*run) error) (*record, error) {
	scratch, err := os.MkdirTemp(cfg.outDir, "scratch-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	r := &run{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.seed)),
		scratch: scratch,
		metrics: map[string]float64{},
		dists:   map[string]distSummary{},
	}
	if cfg.trace {
		r.tr = newTracer()
	}
	start := time.Now()
	if err := fn(r); err != nil {
		return nil, err
	}
	rec := &record{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Commit: commit(), When: start.UTC().Format(time.RFC3339),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: cpuModel(),
		WallS:     time.Since(start).Seconds(),
		Attempted: r.attempted, Failed: r.failed, Notes: r.notes,
		Metrics: map[string]metric{}, Dists: r.dists,
	}
	// The result line carries exactly one of the two tables; the other
	// table's metrics that the run happened to measure stay in the record.
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := r.metrics[d.name]; ok {
				rec.Metrics[d.name] = metric{v, d.unit}
			}
		}
	}
	for _, d := range rec.required() {
		v, ok := rec.Metrics[d.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
	}
	if rec.Attempted == 0 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	if r.tr != nil {
		rec.SelfTimes = r.tr.selfTimes()
		if err := r.tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// required is the table the result line must carry in full.
func (rec *record) required() []metricDef {
	if rec.Trace {
		return perLayer
	}
	return endToEnd
}

// print writes every metric by name with its unit, the distributions behind
// the percentiles, and as the last line the result object the driver reads.
func (rec *record) print(w *os.File, earlier []record) {
	fmt.Fprintf(w, "== %s  seed=%d seconds=%g trace=%v commit=%s  nproc=%d GOMAXPROCS=%d %s  %s\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Commit, rec.NProc, rec.GOMAXPROCS, rec.GoVersion, rec.CPUModel)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if m, ok := rec.Metrics[d.name]; ok {
				fmt.Fprintf(w, "%-32s %14.4f %-6s %s\n", d.name, m.Value, m.Unit, d.what)
			}
		}
	}
	for _, name := range sortedKeys(rec.Dists) {
		fmt.Fprintf(w, "dist %-27s %s\n", name, rec.Dists[name])
	}
	for _, st := range rec.SelfTimes {
		fmt.Fprintf(w, "span %-27s n=%d total=%.3f ms self=%.3f ms\n", st.Name, st.Count, st.TotalMS, st.SelfMS)
	}
	if rec.Trace {
		rec.printTraceOverhead(w, earlier)
	}
	for _, n := range rec.Notes {
		fmt.Fprintf(w, "FAILED %s\n", n)
	}
	fmt.Fprintf(w, "%-32s %14.6f %-6s failed or refused operations / attempted (%d of %d)\n",
		"failed_share", float64(rec.Failed)/float64(rec.Attempted), "ratio", rec.Failed, rec.Attempted)
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Failed == 0, rec.Attempted, rec.Failed, map[string]metric{}}
	for _, d := range rec.required() {
		line.Metrics[d.name] = rec.Metrics[d.name]
	}
	data, _ := json.Marshal(line)
	fmt.Fprintf(w, "%s\n", data)
}

// printTraceOverhead compares the end-to-end metrics the traced run repeated
// with the latest untraced record of the same workload, seed and length
// among the earlier records, when there is one.
func (rec *record) printTraceOverhead(w *os.File, recs []record) {
	var ref *record
	for i := range recs {
		if !recs[i].Trace && recs[i].Workload == rec.Workload && recs[i].Seed == rec.Seed && recs[i].Seconds == rec.Seconds {
			ref = &recs[i]
		}
	}
	if ref == nil {
		fmt.Fprintf(w, "trace.overhead_pct: no untraced run of %s seed %d in the records to compare with\n", rec.Workload, rec.Seed)
		return
	}
	for _, d := range endToEnd {
		a, b := ref.Metrics[d.name].Value, rec.Metrics[d.name].Value
		if a != 0 {
			fmt.Fprintf(w, "trace.overhead_pct %-24s %+8.2f %%   (untraced %.4f, traced %.4f %s)\n", d.name, (b-a)/a*100, a, b, d.unit)
		}
	}
}

func appendRecord(path string, rec *record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []record
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// commit names the code measured: the git commit when the benchmark runs in
// a repository, "unknown" in a bare checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
