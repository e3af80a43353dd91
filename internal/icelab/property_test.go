package icelab

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/smartfactory/sysml2conf/internal/codegen"
	"github.com/smartfactory/sysml2conf/internal/k8s"
)

// randomSpec builds a random but valid factory spec from a seed: 1-4
// workcells, 1-3 machines each, random variable/service inventories.
func randomSpec(seed int64) FactorySpec {
	rng := rand.New(rand.NewSource(seed))
	types := []string{"Double", "Integer", "Boolean", "String"}
	spec := FactorySpec{
		TopologyName: "RandTopology",
		Enterprise:   "RandCorp",
		Site:         "RandSite",
		Area:         "RandArea",
		Line:         "randLine",
	}
	wcs := rng.Intn(4) + 1
	machineID := 0
	for w := 0; w < wcs; w++ {
		machines := rng.Intn(3) + 1
		for m := 0; m < machines; m++ {
			machineID++
			ms := MachineSpec{
				Name:     fmt.Sprintf("m%d", machineID),
				TypeName: fmt.Sprintf("MachType%d", machineID),
				Display:  fmt.Sprintf("Random Machine %d", machineID),
				Workcell: fmt.Sprintf("randWC%d", w+1),
				Driver:   DriverKind(rng.Intn(2)),
				IP:       fmt.Sprintf("10.0.%d.%d", w+1, m+1),
				Port:     5000 + machineID,
			}
			cats := rng.Intn(3) + 1
			for c := 0; c < cats; c++ {
				cat := Category{Name: fmt.Sprintf("Cat%d", c+1)}
				vars := rng.Intn(6) + 1
				for v := 0; v < vars; v++ {
					cat.Vars = append(cat.Vars, VarDef{
						Name: fmt.Sprintf("v%d_%d", c+1, v+1),
						Type: types[rng.Intn(len(types))],
					})
				}
				ms.Categories = append(ms.Categories, cat)
			}
			svcs := rng.Intn(4) + 1
			for s := 0; s < svcs; s++ {
				ms.Services = append(ms.Services, ServiceDef{
					Name:    fmt.Sprintf("svc%d", s+1),
					Returns: []ParamDef{{Name: "result", Type: "Boolean"}},
				})
			}
			spec.Machines = append(spec.Machines, ms)
		}
	}
	return spec
}

// TestPipelinePropertyRandomFactories drives random specs through synth ->
// parse -> resolve -> extract -> generate and checks the pipeline
// invariants hold for any modeled plant, not just the ICE Lab.
func TestPipelinePropertyRandomFactories(t *testing.T) {
	f := func(seed int64) bool {
		spec := randomSpec(seed)
		factory, model, err := Build(spec)
		if err != nil {
			t.Logf("seed %d: build: %v", seed, err)
			return false
		}
		if model.Diags.HasErrors() {
			t.Logf("seed %d: diagnostics: %v", seed, model.Diags)
			return false
		}
		// Invariant 1: extraction preserves the machine inventory.
		if len(factory.Machines()) != len(spec.Machines) {
			t.Logf("seed %d: machines %d != %d", seed, len(factory.Machines()), len(spec.Machines))
			return false
		}
		wantVars, wantSvcs := 0, 0
		byName := map[string]MachineSpec{}
		for _, ms := range spec.Machines {
			wantVars += ms.VariableCount()
			wantSvcs += len(ms.Services)
			byName[ms.Name] = ms
		}
		if factory.TotalVariables() != wantVars || factory.TotalServices() != wantSvcs {
			t.Logf("seed %d: totals %d/%d want %d/%d", seed,
				factory.TotalVariables(), factory.TotalServices(), wantVars, wantSvcs)
			return false
		}
		// Invariant 2: per-machine counts and driver parameters match.
		for _, m := range factory.Machines() {
			ms := byName[m.Name]
			if len(m.Variables) != ms.VariableCount() || len(m.Services) != len(ms.Services) {
				t.Logf("seed %d: %s counts", seed, m.Name)
				return false
			}
			if m.Driver.Parameters["ip"].String() != ms.IP {
				t.Logf("seed %d: %s ip %q != %q", seed, m.Name, m.Driver.Parameters["ip"], ms.IP)
				return false
			}
		}
		// Invariants 3-5 hold for a one-broker and for a federated plant.
		for _, shards := range []int{1, 3} {
			bundle, err := codegen.Generate(factory, codegen.GenOptions{Options: codegen.Options{Shards: shards}})
			if err != nil {
				t.Logf("seed %d, %d shards: generate: %v", seed, shards, err)
				return false
			}
			if msg := checkBundle(spec, bundle); msg != "" {
				t.Logf("seed %d, %d shards: %s", seed, shards, msg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// checkBundle checks a generated bundle against its spec, returning what is
// wrong or "":
//   - 3: one server per workcell, every machine in exactly one client group;
//   - 4: each manifest decodes to exactly its Bundle.Objects, which validate;
//   - 5: each ConfigMap carries its config as the compact form of the step-1
//     file (one encoding behind both), and every step-1 file but
//     placement.json is carried once. A broker shard's broker.json has no
//     step-1 file.
func checkBundle(spec FactorySpec, bundle *codegen.Bundle) string {
	if bundle.Summary.Servers != len(spec.Workcells()) {
		return fmt.Sprintf("servers %d != workcells %d", bundle.Summary.Servers, len(spec.Workcells()))
	}
	covered := map[string]int{}
	for _, cc := range bundle.Intermediate.Clients {
		for _, cm := range cc.Machines {
			covered[cm.Machine]++
		}
	}
	for _, ms := range spec.Machines {
		if covered[ms.Name] != 1 {
			return fmt.Sprintf("machine %s in %d clients", ms.Name, covered[ms.Name])
		}
	}
	dirs := map[string]string{
		"server.json": "servers/", "client.json": "clients/",
		"storage.json": "storage/", "monitor.json": "monitors/",
	}
	carried := 0
	for path, data := range bundle.Manifests {
		objs, err := k8s.Decode(data)
		if err != nil {
			return fmt.Sprintf("%s: %v", path, err)
		}
		if !reflect.DeepEqual(objs, bundle.Objects(path)) {
			return fmt.Sprintf("%s decodes to objects other than Bundle.Objects", path)
		}
		if err := k8s.Validate(objs); err != nil {
			return fmt.Sprintf("%s: %v", path, err)
		}
		for _, o := range objs {
			if o.Kind() != "ConfigMap" {
				continue
			}
			for key, value := range o.ConfigData() {
				var file string
				switch {
				case key == "broker.json":
					continue
				case strings.HasPrefix(key, "machine-"):
					file = "machines/" + strings.TrimPrefix(key, "machine-")
				default:
					file = dirs[key] + o.Labels()["app"] + ".json"
				}
				var compact bytes.Buffer
				if err := json.Compact(&compact, bundle.JSON[file]); err != nil {
					return fmt.Sprintf("%s: %s: step-1 file %s: %v", path, key, file, err)
				}
				if compact.String() != value {
					return fmt.Sprintf("%s: %s is not the compact form of %s", path, key, file)
				}
				carried++
			}
		}
	}
	want := len(bundle.JSON)
	if _, ok := bundle.JSON["placement.json"]; ok {
		want--
	}
	if carried != want {
		return fmt.Sprintf("ConfigMaps carry %d configs, want one per step-1 file: %d", carried, want)
	}
	return ""
}
