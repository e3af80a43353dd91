package slab

import "testing"

func TestNewChunksGrowAndStayDistinct(t *testing.T) {
	var s []int
	var ptrs []*int
	for i := 0; i < 1000; i++ {
		p := New(&s, 256)
		if *p != 0 {
			t.Fatalf("value %d not zeroed", i)
		}
		*p = i
		ptrs = append(ptrs, p)
	}
	for i, p := range ptrs {
		if *p != i {
			t.Fatalf("value %d overwritten with %d", i, *p)
		}
	}
	if cap(s) != 256 {
		t.Errorf("chunk cap = %d, want the 256 maximum", cap(s))
	}
}

func TestAppendIsCappedAndCopies(t *testing.T) {
	var s []string
	a := Append(&s, 1024, nil, "a1", "a2")
	b := Append(&s, 1024, nil, "b1")
	if len(a) != cap(a) || len(b) != cap(b) {
		t.Fatalf("len/cap a=%d/%d b=%d/%d", len(a), cap(a), len(b), cap(b))
	}
	// A holder's append must not write into the neighbouring slice.
	_ = append(a, "x")
	if b[0] != "b1" {
		t.Errorf("neighbour overwritten: %q", b[0])
	}
	a2 := Append(&s, 1024, a, "a3")
	if len(a2) != 3 || a2[2] != "a3" || len(a) != 2 {
		t.Errorf("a2 = %q, a = %q", a2, a)
	}
	if Append[string](&s, 1024, nil) != nil {
		t.Error("empty append should be nil")
	}
	big := make([]string, 3000)
	if got := Append(&s, 1024, nil, big...); len(got) != 3000 {
		t.Errorf("oversized append len = %d", len(got))
	}
}

func TestAppendAllocatesPerChunk(t *testing.T) {
	allocs := testing.AllocsPerRun(10, func() {
		var s []string
		for i := 0; i < 4096; i++ {
			Append(&s, 1024, nil, "x", "y")
		}
	})
	// 16, 32, ..., 1024, then 1024-element chunks: 7 + 7 chunks for 8192.
	if allocs > 16 {
		t.Errorf("allocs = %.0f, want one per chunk (<= 16)", allocs)
	}
}
