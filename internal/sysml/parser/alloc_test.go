package parser_test

import (
	"testing"

	"github.com/smartfactory/sysml2conf/internal/icelab"
	"github.com/smartfactory/sysml2conf/internal/sysml/parser"
)

// TestParseFileAllocsPerModel guards the slabs: parsing the ICE Lab model
// (45 k tokens, 6.3 k elements) takes a few hundred allocations, where one
// per node and name took 40 k.
func TestParseFileAllocsPerModel(t *testing.T) {
	src := icelab.GenerateModelText(icelab.ICELab())
	if _, err := parser.ParseFile("icelab.sysml", src); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		_, _ = parser.ParseFile("icelab.sysml", src)
	})
	if allocs > 2000 {
		t.Errorf("ParseFile(ICE Lab) = %.0f allocations, want <= 2000", allocs)
	}
}
