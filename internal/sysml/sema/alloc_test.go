package sema_test

import (
	"os"
	"sync"
	"testing"
	"unsafe"

	"github.com/smartfactory/sysml2conf/internal/icelab"
	"github.com/smartfactory/sysml2conf/internal/sysml/parser"
	"github.com/smartfactory/sysml2conf/internal/sysml/printer"
	"github.com/smartfactory/sysml2conf/internal/sysml/sema"
)

// TestResolveAllocsPerModel guards the element and list slabs and the
// allocation-free closure walk: resolving the ICE Lab model takes a few
// hundred allocations, where one per element, list and lookup took 25 k.
// A closure walk that allocated again before the freeze would add ~6.4 k.
func TestResolveAllocsPerModel(t *testing.T) {
	f, err := parser.ParseFile("icelab.sysml", icelab.GenerateModelText(icelab.ICELab()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sema.Resolve(f); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		_, _ = sema.Resolve(f)
	})
	if allocs > 2000 {
		t.Errorf("Resolve(ICE Lab) = %.0f allocations, want <= 2000", allocs)
	}
}

func TestElementSize(t *testing.T) {
	if size := unsafe.Sizeof(sema.Element{}); size > 256 {
		t.Errorf("sema.Element is %d bytes, want <= 256", size)
	}
}

// TestFrontEndConcurrent runs ParseFile and Resolve on two models from 8
// goroutines at once (run it under -race): each call owns its slabs, so
// every result matches the one a lone call gives.
func TestFrontEndConcurrent(t *testing.T) {
	milling, err := os.ReadFile("../../../examples/models/millingcell.sysml")
	if err != nil {
		t.Fatal(err)
	}
	srcs := []string{icelab.GenerateModelText(icelab.ICELab()), string(milling)}
	type result struct {
		printed  string
		elements int
	}
	frontEnd := func(src string) (result, error) {
		f, err := parser.ParseFile("m.sysml", src)
		if err != nil {
			return result{}, err
		}
		m, err := sema.Resolve(f)
		if err != nil {
			return result{}, err
		}
		n := 0
		m.Root.Walk(func(*sema.Element) bool { n++; return true })
		return result{printer.Print(f), n}, nil
	}
	want := make([]result, len(srcs))
	for i, src := range srcs {
		if want[i], err = frontEnd(src); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g % len(srcs)
			got, err := frontEnd(srcs[i])
			if err != nil {
				t.Error(err)
				return
			}
			if got != want[i] {
				t.Errorf("goroutine %d: result differs from a lone call (%d vs %d elements)", g, got.elements, want[i].elements)
			}
		}(g)
	}
	wg.Wait()
}
