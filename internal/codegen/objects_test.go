package codegen

import (
	"reflect"
	"testing"

	"github.com/smartfactory/sysml2conf/internal/icelab"
	"github.com/smartfactory/sysml2conf/internal/k8s"
)

// TestBundleObjectsAreTheManifestsDecoded: for every manifest of a bundle,
// Objects is what k8s.Decode reads from the emitted bytes — so a consumer
// that takes the objects sees exactly what one that parses the YAML sees —
// on the plant the benchmark commissions and on its 4-shard variant.
func TestBundleObjectsAreTheManifestsDecoded(t *testing.T) {
	factory := icelab.MustBuild(icelab.Scaled(2))
	for name, opts := range map[string]GenOptions{
		"single broker": {},
		"4 shards":      {Options: Options{Shards: 4}},
	} {
		b, err := Generate(factory, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(b.Manifests) == 0 {
			t.Fatalf("%s: no manifests", name)
		}
		for path, data := range b.Manifests {
			fresh, err := k8s.Decode(data)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, path, err)
			}
			if got := b.Objects(path); len(got) == 0 || !reflect.DeepEqual(got, fresh) {
				t.Errorf("%s: Objects(%s) has %d objects that differ from the %d a fresh decode of its bytes gives",
					name, path, len(got), len(fresh))
			}
		}
		for path := range b.JSON {
			if b.Objects(path) != nil {
				t.Errorf("%s: Objects(%s) is set for a step-1 JSON file", name, path)
			}
		}
		if b.Objects("manifests/nope.yaml") != nil {
			t.Errorf("%s: Objects of an unknown path is set", name)
		}
	}
}

// sameObjects reports whether two object lists are the same objects — the
// same decoded maps — not merely equal ones.
func sameObjects(a, b []k8s.Object) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	for i := range a {
		if reflect.ValueOf(a[i].Raw).Pointer() != reflect.ValueOf(b[i].Raw).Pointer() {
			return false
		}
	}
	return true
}

// TestBundleObjectsRideTheUnitCache: a unit served from the cache brings the
// objects it was validated with — the next bundle holds the very same ones,
// nothing is rendered or decoded for it — and a re-rendered unit brings new
// ones that match its new bytes.
func TestBundleObjectsRideTheUnitCache(t *testing.T) {
	spec := icelab.ICELab()
	cache := NewCache()
	before, err := GenerateWithCache(icelab.MustBuild(spec), GenOptions{}, cache)
	if err != nil {
		t.Fatal(err)
	}
	for i := range spec.Machines {
		if spec.Machines[i].Name == "emco" {
			spec.Machines[i].IP = "10.99.99.99"
		}
	}
	after, err := GenerateWithCache(icelab.MustBuild(spec), GenOptions{}, cache)
	if err != nil {
		t.Fatal(err)
	}
	rerendered := 0
	for path, data := range after.Manifests {
		if string(before.Manifests[path]) == string(data) {
			if !sameObjects(before.Objects(path), after.Objects(path)) {
				t.Errorf("%s is unchanged but its objects were not carried over by the cache", path)
			}
			continue
		}
		rerendered++
		if sameObjects(before.Objects(path), after.Objects(path)) {
			t.Errorf("%s changed but still has the old objects", path)
		}
		fresh, err := k8s.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(after.Objects(path), fresh) {
			t.Errorf("%s: objects do not match the re-rendered bytes", path)
		}
	}
	if rerendered != 1 {
		t.Errorf("%d manifests were re-rendered, want the one server manifest", rerendered)
	}
}
