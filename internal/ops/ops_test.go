package ops

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/smartfactory/sysml2conf/internal/broker"
	"github.com/smartfactory/sysml2conf/internal/codegen"
	"github.com/smartfactory/sysml2conf/internal/icelab"
	"github.com/smartfactory/sysml2conf/internal/isa95"
	"github.com/smartfactory/sysml2conf/internal/machinesim"
)

// testFleet starts n machines named m0..m(n-1), each offering the given
// services, and returns the fleet plus the matching inventory.
func testFleet(t *testing.T, n int, services ...string) (*machinesim.Fleet, []MachineInfo) {
	t.Helper()
	fleet := machinesim.NewFleet()
	t.Cleanup(func() { fleet.Close() })
	var inv []MachineInfo
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("m%d", i)
		spec := machinesim.Spec{Name: name}
		for _, svc := range services {
			spec.Methods = append(spec.Methods, machinesim.MethodSpec{Name: svc, Returns: []string{"Boolean"}})
		}
		if _, err := fleet.Start(spec, 0); err != nil {
			t.Fatal(err)
		}
		inv = append(inv, MachineInfo{
			Name: name, Workcell: fmt.Sprintf("wc%d", i%2), Line: "line",
			Capabilities: services,
		})
	}
	return fleet, inv
}

func fleetResolver(fleet *machinesim.Fleet) func(string) (string, error) {
	return func(machine string) (string, error) {
		m := fleet.Machine(machine)
		if m == nil {
			return "", fmt.Errorf("no machine %q", machine)
		}
		return m.Addr(), nil
	}
}

func TestCompileBindsByCapability(t *testing.T) {
	inv := []MachineInfo{
		{Name: "a", Workcell: "wc1", Line: "l", Capabilities: []string{"work"}},
		{Name: "b", Workcell: "wc2", Line: "l", Capabilities: []string{"work"}},
		{Name: "c", Workcell: "wc2", Line: "l", Capabilities: []string{"finish"}},
	}
	recipe := Recipe{Part: "widget", Operations: []Operation{
		{Name: "work", Capability: "work"},
		{Name: "finish", Capability: "finish"},
	}}
	plan, err := Compile(Goal{Campaign: "c1", Part: "widget", Count: 4}, recipe, inv)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(plan.Steps); got != 8 {
		t.Fatalf("want 8 steps, got %d", got)
	}
	// Round-robin over {a, b} for the work op.
	wantMachines := []string{"a", "b", "a", "b"}
	for part := 1; part <= 4; part++ {
		st := plan.Steps[(part-1)*2]
		if st.ID != fmt.Sprintf("c1/p%d/o0", part) {
			t.Errorf("part %d: step ID %q", part, st.ID)
		}
		if st.Machine != wantMachines[part-1] {
			t.Errorf("part %d bound to %s, want %s", part, st.Machine, wantMachines[part-1])
		}
		if len(st.DependsOn) != 0 {
			t.Errorf("first op of part %d has deps %v", part, st.DependsOn)
		}
		second := plan.Steps[(part-1)*2+1]
		if len(second.DependsOn) != 1 || second.DependsOn[0] != st.Index {
			t.Errorf("second op of part %d deps %v, want [%d]", part, second.DependsOn, st.Index)
		}
		if second.Machine != "c" {
			t.Errorf("finish op bound to %s, want c", second.Machine)
		}
	}

	if _, err := Compile(Goal{Part: "w", Count: 1}, Recipe{Part: "w", Operations: []Operation{
		{Name: "x", Capability: "no_such_service"},
	}}, inv); err == nil || !strings.Contains(err.Error(), "no_such_service") {
		t.Fatalf("want no-capacity compile error, got %v", err)
	}
}

func TestBuildRecipeDeterministic(t *testing.T) {
	inv := []MachineInfo{
		{Name: "wh", Capabilities: []string{"call_tray", "store_tray", "is_ready"}},
		{Name: "rb", Capabilities: []string{"pick", "place", "dock"}},
		{Name: "mill", Capabilities: []string{"start_program", "stop_program"}},
	}
	r1, err := BuildRecipe(inv, "widget", 4)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := BuildRecipe(inv, "widget", 4)
	if fmt.Sprint(r1) != fmt.Sprint(r2) {
		t.Fatalf("recipe not deterministic: %v vs %v", r1, r2)
	}
	if len(r1.Operations) != 4 {
		t.Fatalf("want 4 operations, got %v", r1.Operations)
	}
	if r1.Operations[0].Capability != "call_tray" {
		t.Errorf("staging op should lead, got %v", r1.Operations[0])
	}
	for _, op := range r1.Operations {
		if op.Capability == "is_ready" || op.Capability == "dock" {
			t.Errorf("non-work capability %q in recipe", op.Capability)
		}
	}
}

func TestValidateInventoryAgainstHierarchy(t *testing.T) {
	factory, model, err := icelab.Build(icelab.ICELab())
	if err != nil {
		t.Fatal(err)
	}
	root, err := isa95.Extract(model)
	if err != nil {
		t.Fatal(err)
	}
	in, err := codegen.BuildIntermediate(factory, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inv := InventoryFromIntermediate(in)
	if len(inv) == 0 {
		t.Fatal("empty inventory")
	}
	if err := ValidateInventory(root, inv); err != nil {
		t.Fatalf("modeled inventory should validate: %v", err)
	}
	bogus := append(inv, MachineInfo{Name: "ghostMachine", Workcell: "wcX"})
	if err := ValidateInventory(root, bogus); err == nil || !strings.Contains(err.Error(), "ghostMachine") {
		t.Fatalf("want hierarchy mismatch for ghostMachine, got %v", err)
	}
}

func TestExecutorCompletesCampaign(t *testing.T) {
	fleet, inv := testFleet(t, 2, "work", "finish")
	plan, err := Compile(Goal{Campaign: "camp", Part: "w", Count: 10}, Recipe{
		Part: "w",
		Operations: []Operation{
			{Name: "work", Capability: "work"},
			{Name: "finish", Capability: "finish"},
		},
	}, inv)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(plan, ExecOptions{Resolver: fleetResolver(fleet)})
	rep, err := ex.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 10 || rep.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want 10/0 (report %+v)", rep.Completed, rep.Failed, rep)
	}
	if rep.StepsCompleted != 20 || ex.Ledger().Len() != 20 {
		t.Fatalf("steps completed %d, ledger %d, want 20", rep.StepsCompleted, ex.Ledger().Len())
	}
	// Each machine was dispatched exactly its ledger share.
	for name, want := range ex.Ledger().PerMachine() {
		m := fleet.Machine(name)
		got := m.CallCount("work") + m.CallCount("finish")
		if got != want {
			t.Errorf("%s executed %d calls, ledger says %d", name, got, want)
		}
	}
}

func TestExecutorServiceErrorRetriesThenShortfall(t *testing.T) {
	fleet, inv := testFleet(t, 2, "work")
	plan, err := Compile(Goal{Campaign: "svc", Part: "w", Count: 4}, Recipe{
		Part: "w", Operations: []Operation{{Name: "work", Capability: "work"}},
	}, inv)
	if err != nil {
		t.Fatal(err)
	}
	// Part 1 is planned on m0: one transient failure (retried in place),
	// and m1 fails hard enough to exhaust retries for one of its parts.
	fleet.Machine("m0").FailNextCalls("work", "transient jam", 1)
	fleet.Machine("m1").FailNextCalls("work", "tool broken", 10)
	ex := NewExecutor(plan, ExecOptions{
		Resolver:    fleetResolver(fleet),
		Retries:     2,
		Concurrency: 1, // deterministic ordering of fault consumption
	})
	rep, err := ex.Run()
	if err != nil {
		t.Fatal(err)
	}
	// m0's parts (1 and 3) succeed — the transient ERR was retried on the
	// same machine, not treated as machine loss.
	if len(rep.MachinesLost) != 0 {
		t.Fatalf("service errors must not mark machines lost: %v", rep.MachinesLost)
	}
	if rep.Completed != 2 || rep.Failed != 2 {
		t.Fatalf("completed=%d failed=%d, want 2/2 (shortfall %v)", rep.Completed, rep.Failed, rep.Shortfall)
	}
	if len(rep.Shortfall) != 2 {
		t.Fatalf("want 2 shortfall entries, got %v", rep.Shortfall)
	}
	for _, sf := range rep.Shortfall {
		if sf.Capability != "work" || !strings.Contains(sf.Reason, "tool broken") {
			t.Errorf("shortfall %+v should name the capability and the service error", sf)
		}
	}
}

func TestExecutorRebindsOnMachineLoss(t *testing.T) {
	fleet, inv := testFleet(t, 2, "work")
	fleet.Machine("m0").SetCallDelay(2 * time.Millisecond)
	fleet.Machine("m1").SetCallDelay(2 * time.Millisecond)
	const parts = 40
	plan, err := Compile(Goal{Campaign: "loss", Part: "w", Count: parts}, Recipe{
		Part: "w", Operations: []Operation{{Name: "work", Capability: "work"}},
	}, inv)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(plan, ExecOptions{
		Resolver:    fleetResolver(fleet),
		Concurrency: 4,
		StepTimeout: 500 * time.Millisecond,
	})
	done := make(chan struct{})
	var rep *Report
	var runErr error
	go func() {
		defer close(done)
		rep, runErr = ex.Run()
	}()
	// Kill m0 once a few steps have landed: its planned steps must rebind
	// to m1.
	for ex.Ledger().Len() < 4 {
		time.Sleep(time.Millisecond)
	}
	fleet.Machine("m0").Close()
	<-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	if rep.Completed != parts || rep.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want %d/0 (report %+v)", rep.Completed, rep.Failed, parts, rep)
	}
	if rep.StepsRebound == 0 {
		t.Fatal("machine loss mid-plan must rebind steps (StepsRebound == 0)")
	}
	if len(rep.MachinesLost) != 1 || rep.MachinesLost[0] != "m0" {
		t.Fatalf("MachinesLost = %v, want [m0]", rep.MachinesLost)
	}
	if got := ex.Ledger().PerMachine()["m1"]; got < parts/2 {
		t.Fatalf("survivor m1 executed only %d of %d steps", got, parts)
	}
}

func TestExecutorShortfallWhenCapacityGone(t *testing.T) {
	fleet, inv := testFleet(t, 1, "work")
	fleet.Machine("m0").SetCallDelay(5 * time.Millisecond)
	const parts = 10
	plan, err := Compile(Goal{Campaign: "dry", Part: "w", Count: parts}, Recipe{
		Part: "w", Operations: []Operation{{Name: "work", Capability: "work"}},
	}, inv)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(plan, ExecOptions{
		Resolver:        fleetResolver(fleet),
		Concurrency:     2,
		StepTimeout:     300 * time.Millisecond,
		NoCapacityGrace: 300 * time.Millisecond,
	})
	done := make(chan struct{})
	var rep *Report
	var runErr error
	go func() {
		defer close(done)
		rep, runErr = ex.Run()
	}()
	for ex.Ledger().Len() < 2 {
		time.Sleep(time.Millisecond)
	}
	fleet.Machine("m0").Close()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("executor hung instead of degrading to a shortfall report")
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if rep.Completed+rep.Failed != parts {
		t.Fatalf("completed %d + failed %d != %d parts", rep.Completed, rep.Failed, parts)
	}
	if rep.Failed == 0 || len(rep.Shortfall) != rep.Failed {
		t.Fatalf("want explicit shortfall for every failed part, got failed=%d shortfall=%v", rep.Failed, rep.Shortfall)
	}
	for _, sf := range rep.Shortfall {
		if sf.Capability != "work" {
			t.Errorf("shortfall %+v should name the starved capability", sf)
		}
	}
}

// TestExecutorRestartNoDoubleDispatch is the supervised-restart coverage:
// an executor halted mid-campaign hands its ledger to a successor, which
// must not re-dispatch completed steps (machine call counts stay exact)
// and must not re-deliver their events (broker (session, seq) dedup).
func TestExecutorRestartNoDoubleDispatch(t *testing.T) {
	fleet, inv := testFleet(t, 2, "work", "finish")

	brk := broker.New()
	if err := brk.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer brk.Close()
	brokerAddr := func() string { return brk.Addr() }

	// Count every campaign event the broker actually delivers, by step ID.
	cc, err := broker.DialClient(brk.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	subID, ch, err := cc.SubscribeSession("factory/#", "audit-consumer", 0)
	if err != nil {
		t.Fatal(err)
	}
	var seenMu sync.Mutex
	seen := map[string]int{}
	go func() {
		for m := range ch {
			if err := cc.Ack(subID, m.Seq); err != nil {
				return
			}
			var ev struct {
				Step string `json:"step"`
			}
			if json.Unmarshal(m.Payload, &ev) == nil && ev.Step != "" {
				seenMu.Lock()
				seen[ev.Step]++
				seenMu.Unlock()
			}
		}
	}()

	const parts = 30
	fleet.Machine("m0").SetCallDelay(2 * time.Millisecond)
	fleet.Machine("m1").SetCallDelay(2 * time.Millisecond)
	recipe := Recipe{Part: "w", Operations: []Operation{
		{Name: "work", Capability: "work"},
		{Name: "finish", Capability: "finish"},
	}}
	plan, err := Compile(Goal{Campaign: "restart", Part: "w", Count: parts}, recipe, inv)
	if err != nil {
		t.Fatal(err)
	}

	opts := ExecOptions{
		Resolver:   fleetResolver(fleet),
		BrokerAddr: brokerAddr,
	}
	exA := NewExecutor(plan, opts)
	doneA := make(chan struct{})
	go func() {
		defer close(doneA)
		if _, err := exA.Run(); err != nil {
			t.Error(err)
		}
	}()
	for exA.Ledger().Len() < 10 {
		time.Sleep(time.Millisecond)
	}
	exA.Halt() // the supervised pod restart
	<-doneA
	completedAtHalt := exA.Ledger().Len()
	if completedAtHalt >= 2*parts {
		t.Fatalf("campaign finished (%d steps) before the halt; nothing restarts", completedAtHalt)
	}

	// Successor executor: same plan, same ledger, fresh everything else.
	// Clearing the flush watermark mimics a process restart that lost its
	// in-memory broker acks: the successor replays the whole event stream
	// and broker (session, seq) dedup must absorb the prefix.
	opts.Ledger = exA.Ledger()
	opts.Ledger.ResetFlushed()
	plan2, err := Compile(Goal{Campaign: "restart", Part: "w", Count: parts}, recipe, inv)
	if err != nil {
		t.Fatal(err)
	}
	exB := NewExecutor(plan2, opts)
	rep, err := exB.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != parts {
		t.Fatalf("restarted campaign completed %d parts, want %d", rep.Completed, parts)
	}
	if rep.StepsRestored != completedAtHalt {
		t.Fatalf("successor restored %d steps, ledger had %d at halt", rep.StepsRestored, completedAtHalt)
	}
	if got := exB.Ledger().Len(); got != 2*parts {
		t.Fatalf("ledger has %d steps, want %d", got, 2*parts)
	}

	// No double dispatch: every step executed exactly once across both
	// executors, so machine call counts sum exactly to the step count.
	total := 0
	for _, name := range fleet.Names() {
		m := fleet.Machine(name)
		total += m.CallCount("work") + m.CallCount("finish")
	}
	if total != 2*parts {
		t.Fatalf("machines saw %d service calls for %d steps: completed steps were re-dispatched", total, 2*parts)
	}

	// No double delivery: the successor re-publishes the restored prefix,
	// but broker (session, seq) dedup suppresses it — the consumer sees
	// each step event exactly once.
	waitUntil := time.Now().Add(5 * time.Second)
	for {
		seenMu.Lock()
		n := len(seen)
		seenMu.Unlock()
		if n >= 2*parts || time.Now().After(waitUntil) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	seenMu.Lock()
	defer seenMu.Unlock()
	if len(seen) != 2*parts {
		t.Fatalf("consumer saw %d distinct step events, want %d", len(seen), 2*parts)
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("step %s delivered %d times", id, n)
		}
	}
}

// TestRunReturnsWithLedgerFlushed: a nil error from Run means every ledger
// event was acknowledged by the broker. The publisher used to decide it was
// done from a sequence read before it checked that the workers were idle, so
// a completion appended between the two reads stayed unpublished about once
// in 150 campaigns; short campaigns end on exactly that edge, so a few
// hundred of them (under -race in make check) cover it.
func TestRunReturnsWithLedgerFlushed(t *testing.T) {
	fleet, inv := testFleet(t, 2, "work")
	brk := broker.New()
	if err := brk.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer brk.Close()
	campaigns := 400
	if testing.Short() {
		campaigns = 50
	}
	for i := 0; i < campaigns; i++ {
		plan, err := Compile(Goal{Campaign: fmt.Sprintf("flush-%d", i), Part: "w", Count: 1 + i%5},
			Recipe{Part: "w", Operations: []Operation{{Name: "work", Capability: "work"}}}, inv)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := NewExecutor(plan, ExecOptions{Resolver: fleetResolver(fleet), BrokerAddr: brk.Addr}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.LedgerFlushed != rep.LedgerTotal || rep.LedgerTotal != uint64(len(plan.Steps)) {
			t.Fatalf("campaign %d: Run returned nil with %d of %d ledger events flushed (%d steps)",
				i, rep.LedgerFlushed, rep.LedgerTotal, len(plan.Steps))
		}
	}
}
