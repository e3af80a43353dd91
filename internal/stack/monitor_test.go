package stack

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"github.com/smartfactory/sysml2conf/internal/broker"
	"github.com/smartfactory/sysml2conf/internal/codegen"
)

func monitorConfig() codegen.MonitorConfig {
	return codegen.MonitorConfig{
		Name: "monitor-wc02", Workcell: "wc02", Line: "line1",
		SourceFilter: "factory/line1/wc02/+/values/#",
		PeriodMs:     20,
		Attributes: []codegen.MonitorAttr{
			{Name: "samples_total", Type: "Integer", Function: codegen.FnSamplesTotal,
				Topic: "factory/line1/wc02/_monitor/samples_total"},
			{Name: "variables_live", Type: "Integer", Function: codegen.FnVariablesLive,
				Topic: "factory/line1/wc02/_monitor/variables_live"},
			{Name: "mean_load", Type: "Double", Function: codegen.FnMean, Source: "load",
				Topic: "factory/line1/wc02/_monitor/mean_load"},
			{Name: "max_load", Type: "Double", Function: codegen.FnMax, Source: "load",
				Topic: "factory/line1/wc02/_monitor/max_load"},
		},
	}
}

func publishSample(t *testing.T, bc *broker.Client, machine, variable string, value any) {
	t.Helper()
	payload, err := json.Marshal(VariableSample{Machine: machine, Variable: variable, Value: value})
	if err != nil {
		t.Fatal(err)
	}
	topic := "factory/line1/wc02/" + machine + "/values/Cat/" + variable
	if err := bc.Publish(topic, payload, false); err != nil {
		t.Fatal(err)
	}
}

func TestWorkcellMonitorAggregations(t *testing.T) {
	brk := broker.New()
	if err := brk.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer brk.Close()

	mon := NewWorkcellMonitor(monitorConfig(), brk.Addr())
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}
	defer mon.Stop()

	_, monCh, err := brk.Subscribe("factory/line1/wc02/_monitor/#")
	if err != nil {
		t.Fatal(err)
	}

	pub, err := broker.DialClient(brk.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	publishSample(t, pub, "emco", "load", 10.0)
	publishSample(t, pub, "emco", "load", 30.0)
	publishSample(t, pub, "emco", "mode", "running") // non-numeric: counted, not aggregated
	publishSample(t, pub, "ur5", "speed", 2.0)

	// Await stable values: mean 20, max 30, samples 4, live 3.
	want := map[string]float64{
		"samples_total":  4,
		"variables_live": 3,
		"mean_load":      20,
		"max_load":       30,
	}
	got := map[string]float64{}
	deadline := time.After(5 * time.Second)
	for {
		allMatch := len(got) == len(want)
		for k, v := range want {
			if got[k] != v {
				allMatch = false
			}
		}
		if allMatch {
			break
		}
		select {
		case m := <-monCh:
			var s MonitorSample
			if err := json.Unmarshal(m.Payload, &s); err != nil {
				t.Fatal(err)
			}
			got[s.Attribute] = s.Value
		case <-deadline:
			t.Fatalf("aggregates never converged: got %v, want %v", got, want)
		}
	}

	st := mon.Stats()
	samples, publishes, live := st.Samples, st.Publishes, st.LiveSeries
	if samples != 4 || live != 3 || publishes == 0 {
		t.Errorf("stats = %d/%d/%d", samples, publishes, live)
	}
}

func TestWorkcellMonitorRetainsLatest(t *testing.T) {
	brk := broker.New()
	if err := brk.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer brk.Close()
	mon := NewWorkcellMonitor(monitorConfig(), brk.Addr())
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}
	defer mon.Stop()

	pub, err := broker.DialClient(brk.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	publishSample(t, pub, "emco", "load", 5.0)

	// Monitor publishes retained: a late subscriber immediately sees the
	// latest aggregate.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		publishes := mon.Stats().Publishes
		if publishes > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	late, err := broker.DialClient(brk.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	_, ch, err := late.Subscribe("factory/line1/wc02/_monitor/samples_total")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-ch:
		if !m.Retained {
			t.Error("late subscriber should receive a retained aggregate")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no retained aggregate for late subscriber")
	}
}

func TestClassifyViaBuildIntermediate(t *testing.T) {
	// Unknown monitor attribute shapes must fail generation loudly; this is
	// covered through the codegen path in codegen tests, here we check the
	// monitor ignores sources it was not configured for.
	brk := broker.New()
	if err := brk.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer brk.Close()
	mon := NewWorkcellMonitor(monitorConfig(), brk.Addr())
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}
	defer mon.Stop()
	pub, err := broker.DialClient(brk.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	publishSample(t, pub, "emco", "unrelated", 999.0)
	time.Sleep(100 * time.Millisecond)
	samples := mon.Stats().Samples
	if samples != 1 {
		t.Errorf("samples = %d", samples)
	}
}

// referenceSample is what ingest decided before it scanned payloads:
// json.Unmarshal into VariableSample, counted when that succeeds, numeric
// when the value decodes to a number or a bool.
func referenceSample(p []byte) (variable string, value float64, numeric, counted bool) {
	var sample VariableSample
	if err := json.Unmarshal(p, &sample); err != nil {
		return "", 0, false, false
	}
	switch v := sample.Value.(type) {
	case float64:
		return sample.Variable, v, true, true
	case bool:
		if v {
			return sample.Variable, 1, true, true
		}
		return sample.Variable, 0, true, true
	}
	return sample.Variable, 0, false, true
}

// FuzzMonitorIngest: for any payload, ingest's decision (counted or not,
// variable, numeric, value) is the one json.Unmarshal into VariableSample
// gives.
func FuzzMonitorIngest(f *testing.F) {
	for _, seed := range []string{
		`{"machine":"emco","variable":"load","category":"Axes","type":"Double","value":1.5}`,
		`{"mAChine":0}`,
		`{"Variable":"x","value":1}`,
		`{"variable":"a","variable":"b","value":1}`,
		`{"variable":"load","value":1,"value":"x"}`,
		`{"variable":"load","value":1e400}`,
		`{"variable":5,"value":1}`,
		`{"variable":null,"value":1}`,
		`{"variable":"load","value":{"a":[1,{"b":2}]}}`,
		` { "variable" : "load" , "value" : -0.5e-3 , "type" : "Double" } `,
		`{"variable":"lоad","machine":"é","value":true}`,
		`{"machıne":"x","variable":"load","value":false}`,
		`{"\u0076ariable":"load","value":3}`,
		`{"variable":"load","value":2}`,
		`{"variable":"load","value":null,"extra":[1e400]}`,
		`null`, `[1]`, `5`, `{}`, `{"variable":"load"`, "",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		variable, value, numeric, counted := readSample(p)
		wantVar, wantValue, wantNumeric, wantCounted := referenceSample(p)
		if counted != wantCounted || string(variable) != wantVar || numeric != wantNumeric ||
			math.Float64bits(value) != math.Float64bits(wantValue) {
			t.Fatalf("%q: read (%q, %v, numeric %v, counted %v), json.Unmarshal says (%q, %v, %v, %v)",
				p, variable, value, numeric, counted, wantVar, wantValue, wantNumeric, wantCounted)
		}
	})
}

// TestMonitorIngestAllocs: ingesting a numeric sample as the bridge
// publishes it allocates nothing (margin 0: json.Unmarshal into
// VariableSample cost 12 objects per sample here).
func TestMonitorIngestAllocs(t *testing.T) {
	w := NewWorkcellMonitor(monitorConfig(), "")
	m := broker.Message{
		Topic:   "factory/line1/wc02/emco/values/Axes/load",
		Payload: []byte(`{"machine":"emco","variable":"load","category":"Axes","type":"Double","value":12.375}`),
	}
	w.ingest(m) // the series and the accumulator exist from here on
	if n := testing.AllocsPerRun(200, func() { w.ingest(m) }); n != 0 {
		t.Errorf("ingest of a numeric sample allocates %.1f objects, want 0", n)
	}
	// AllocsPerRun runs the function once more before it counts.
	if samples := w.Stats().Samples; samples != 202 {
		t.Errorf("samples = %d, want 202", samples)
	}
	if acc := w.means["load"]; acc == nil || acc.count != 202 || acc.sum != 202*12.375 {
		t.Errorf("mean accumulator = %+v, want 202 samples of 12.375", acc)
	}
}
