package deploy

import (
	"encoding/json"
	"testing"
	"time"

	"github.com/smartfactory/sysml2conf/internal/broker"
	"github.com/smartfactory/sysml2conf/internal/stack"
)

// TestWorkcellMonitorsPublishAggregates: the workcell-level monitoring
// attributes modeled in the ICE Lab (samples_total, variables_live,
// mean_spindleLoad, max_lineSpeed) are computed by the deployed monitor
// components and published on the _monitor topics.
func TestWorkcellMonitorsPublishAggregates(t *testing.T) {
	cluster, bundle := deployICELab(t)
	if bundle.Summary.Monitors != 3 {
		t.Fatalf("monitors = %d", bundle.Summary.Monitors)
	}
	if cluster.Monitor("monitor-workcell02") == nil {
		t.Fatal("monitor-workcell02 not running")
	}

	bc, err := broker.DialClient(cluster.BrokerAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	_, wcCh, err := bc.Subscribe("factory/+/+/_monitor/#")
	if err != nil {
		t.Fatal(err)
	}
	_, lineCh, err := bc.Subscribe("factory/+/_monitor/#")
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan broker.Message, 512)
	go func() {
		for {
			select {
			case m, ok := <-wcCh:
				if !ok {
					return
				}
				ch <- m
			case m, ok := <-lineCh:
				if !ok {
					return
				}
				ch <- m
			}
		}
	}()

	// Collect monitor samples until every modeled attribute was seen.
	want := map[string]bool{
		"workCell02/samples_total":    false,
		"workCell02/variables_live":   false,
		"workCell02/mean_spindleLoad": false,
		"workCell06/samples_total":    false,
		"workCell06/max_lineSpeed":    false,
		"/samples_total":              false, // line-level monitor (no workcell)
		"/variables_live":             false,
	}
	deadline := time.After(15 * time.Second)
	for {
		remaining := 0
		for _, seen := range want {
			if !seen {
				remaining++
			}
		}
		if remaining == 0 {
			break
		}
		select {
		case m := <-ch:
			var sample stack.MonitorSample
			if err := json.Unmarshal(m.Payload, &sample); err != nil {
				t.Fatalf("bad monitor payload %s: %v", m.Payload, err)
			}
			key := sample.Workcell + "/" + sample.Attribute
			if _, ok := want[key]; !ok {
				t.Errorf("unexpected monitor attribute %s", key)
				continue
			}
			switch sample.Attribute {
			case "samples_total", "variables_live":
				if sample.Value < 1 {
					continue // not yet warmed up; keep waiting
				}
			case "mean_spindleLoad", "max_lineSpeed":
				// The emulator's Double generator stays within 50±40.
				if sample.Value < 9 || sample.Value > 91 {
					t.Errorf("%s = %v out of generator range", key, sample.Value)
				}
			}
			want[key] = true
		case <-deadline:
			t.Fatalf("missing monitor attributes: %v", want)
		}
	}

	// variables_live for workcell02 tops out at its 133 machine variables.
	mon := cluster.Monitor("monitor-workcell02")
	st := mon.Stats()
	samples, publishes, live := st.Samples, st.Publishes, st.LiveSeries
	if samples == 0 || publishes == 0 {
		t.Errorf("monitor stats: samples=%d publishes=%d", samples, publishes)
	}
	if live > 133 {
		t.Errorf("live series = %d, want <= 133", live)
	}
}
