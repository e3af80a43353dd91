package sysml2conf

import (
	"reflect"
	"testing"

	"github.com/smartfactory/sysml2conf/internal/icelab"
)

func filesOf(res *Result) map[string]string {
	out := map[string]string{}
	for _, f := range res.Bundle.AllFiles() {
		out[f.Name] = string(f.Data)
	}
	return out
}

// TestRunWorkersDeterminism: the full pipeline output is byte-identical
// between the parallel default and the sequential Workers=1 path.
func TestRunWorkersDeterminism(t *testing.T) {
	src := icelab.GenerateModelText(icelab.ICELab())
	ref, err := Run(src, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	refFiles := filesOf(ref)
	for _, workers := range []int{0, 4} {
		res, err := Run(src, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got := filesOf(res)
		if len(got) != len(refFiles) {
			t.Fatalf("workers=%d: %d files, want %d", workers, len(got), len(refFiles))
		}
		for name, data := range refFiles {
			if got[name] != data {
				t.Fatalf("workers=%d: %s differs from sequential output", workers, name)
			}
		}
	}
}

// TestRunIncrementalUnchangedModel: regenerating an identical model serves
// every unit from the cache and reproduces the bundle byte-identically.
func TestRunIncrementalUnchangedModel(t *testing.T) {
	src := icelab.GenerateModelText(icelab.ICELab())
	first, err := Run(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	misses0 := first.Cache.Stats().Misses
	second, err := RunIncremental(first, src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := second.Cache.Stats()
	if st.Misses != misses0 {
		t.Errorf("unchanged model caused %d new unit misses", st.Misses-misses0)
	}
	if st.Hits != misses0 {
		t.Errorf("hits = %d, want %d (every unit)", st.Hits, misses0)
	}
	firstFiles, secondFiles := filesOf(first), filesOf(second)
	for name, data := range firstFiles {
		if secondFiles[name] != data {
			t.Errorf("%s changed across an identical regeneration", name)
		}
	}
}

// TestRunIncrementalDirtyMachine: editing one machine's connection
// parameter in the model source re-renders only that machine's artifacts.
func TestRunIncrementalDirtyMachine(t *testing.T) {
	spec := icelab.ICELab()
	prev, err := Run(icelab.GenerateModelText(spec), Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := range spec.Machines {
		if spec.Machines[i].Name == "ur5" {
			spec.Machines[i].Port++
			found = true
		}
	}
	if !found {
		t.Fatal("ur5 not found in ICE Lab spec")
	}
	res, err := RunIncremental(prev, icelab.GenerateModelText(spec), Options{})
	if err != nil {
		t.Fatal(err)
	}
	prevFiles, curFiles := filesOf(prev), filesOf(res)
	var changed []string
	for name, data := range curFiles {
		if prevFiles[name] != data {
			changed = append(changed, name)
		}
	}
	for _, name := range changed {
		if name != "machines/ur5.json" && name[:13] != "manifests/10-" {
			t.Errorf("unexpected dirty file %s", name)
		}
	}
	if len(changed) != 2 {
		t.Errorf("changed = %v, want the machine JSON + its server manifest", changed)
	}
	if res.Cache.Stats().Hits == 0 {
		t.Error("no cache hits on an incremental regeneration")
	}
}

// TestRunIncrementalCarriesDecodedObjects: after a one-machine edit the
// bundle's clean manifests come with the very objects the first run decoded
// (the unit cache carries them; nothing is decoded again), every manifest
// has objects, and the edited server's are new.
func TestRunIncrementalCarriesDecodedObjects(t *testing.T) {
	spec := icelab.ICELab()
	prev, err := Run(icelab.GenerateModelText(spec), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range spec.Machines {
		if spec.Machines[i].Name == "ur5" {
			spec.Machines[i].Port++
		}
	}
	res, err := RunIncremental(prev, icelab.GenerateModelText(spec), Options{})
	if err != nil {
		t.Fatal(err)
	}
	carried, fresh := 0, 0
	for path, data := range res.Bundle.Manifests {
		was, now := prev.Bundle.Objects(path), res.Bundle.Objects(path)
		if len(was) == 0 || len(was) != len(now) {
			t.Fatalf("%s: %d objects before, %d after", path, len(was), len(now))
		}
		same := reflect.ValueOf(was[0].Raw).Pointer() == reflect.ValueOf(now[0].Raw).Pointer()
		if unchanged := string(prev.Bundle.Manifests[path]) == string(data); same != unchanged {
			t.Errorf("%s: bytes unchanged = %v, objects carried over = %v", path, unchanged, same)
		}
		if same {
			carried++
		} else {
			fresh++
		}
	}
	if fresh != 1 || carried == 0 {
		t.Errorf("%d manifests decoded anew and %d carried over, want 1 and the rest", fresh, carried)
	}
}

// TestRunIncrementalNilPrev degrades to a full run.
func TestRunIncrementalNilPrev(t *testing.T) {
	res, err := RunIncremental(nil, icelab.GenerateModelText(icelab.ICELab()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bundle.Summary.Machines != 10 {
		t.Errorf("machines = %d", res.Bundle.Summary.Machines)
	}
}

// TestStageTimings: the per-stage breakdown is populated and sums to (at
// most) the recorded end-to-end generation time.
func TestStageTimings(t *testing.T) {
	res, err := Run(icelab.GenerateModelText(icelab.ICELab()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	stages := res.ParseTime + res.ResolveTime + res.ExtractTime + res.GenerateTime
	if res.ParseTime <= 0 || res.ResolveTime <= 0 || res.ExtractTime <= 0 || res.GenerateTime <= 0 {
		t.Errorf("stage timings not all positive: parse=%v resolve=%v extract=%v generate=%v",
			res.ParseTime, res.ResolveTime, res.ExtractTime, res.GenerateTime)
	}
	if stages > res.GenerationTime {
		t.Errorf("stage sum %v exceeds total %v", stages, res.GenerationTime)
	}
}
