package codegen

import (
	"testing"

	"github.com/smartfactory/sysml2conf/internal/icelab"
	"github.com/smartfactory/sysml2conf/internal/yamlenc"
)

// TestGenerateAllocs guards the generation back end: building the ICE Lab
// bundle takes about 9.2 k allocations, two thirds of them the intermediate
// configs (topics and node IDs). The budget is that plus 8 %; a k8s.Decode
// of the 19 rendered manifests alone would cost more than the margin.
func TestGenerateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	f := icelab.MustBuild(icelab.ICELab())
	opts := GenOptions{Workers: 1}
	if _, err := Generate(f, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() { _, _ = Generate(f, opts) })
	if allocs > 10000 {
		t.Errorf("Generate(ICE Lab, Workers: 1) = %.0f allocations, want <= 10000", allocs)
	}
}

// TestMarshalServerManifestAllocs guards the YAML encoder on the largest
// manifest shape, an OPC UA server's ConfigMap, Deployment and Service: 7
// allocations, all of them the output buffer growing (sorted keys live on
// the stack), under a budget of 8. A copy per string, such as a []rune of
// each scalar, adds one for each string the compiler cannot copy on the
// stack (longer than 32 runes): 4 more here.
func TestMarshalServerManifestAllocs(t *testing.T) {
	b, err := Generate(icelab.MustBuild(icelab.ICELab()), GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	objs := b.Objects("manifests/10-opcua-server-workcell02.yaml")
	if len(objs) != 3 {
		t.Fatalf("server manifest has %d objects, want 3", len(objs))
	}
	docs := make([]any, len(objs))
	for i, o := range objs {
		docs[i] = o.Raw
	}
	allocs := testing.AllocsPerRun(20, func() { _, _ = yamlenc.MarshalDocs(docs...) })
	if allocs > 8 {
		t.Errorf("MarshalDocs(server manifest) = %.0f allocations, want <= 8", allocs)
	}
}
