package ring

import (
	"math/rand"
	"testing"
)

// TestQueueMatchesSliceModel drives a Queue and a plain slice with the same
// seeded sequence of pushes and pops — long bursts that wrap, grow and
// overflow, long drains that empty — and requires the same elements in the
// same order, the same drop decisions and storage that only ever doubles up
// to the bound.
func TestQueueMatchesSliceModel(t *testing.T) {
	for _, bound := range []int{1, 2, 3, 5, 8, 64, 100, 256} {
		rng := rand.New(rand.NewSource(int64(bound)))
		q := Queue[int]{Bound: bound}
		var model []int
		drops, wantDrops, next, grown := 0, 0, 0, 0
		for step := 0; step < 20000; step++ {
			// Runs of one kind, so that the queue fills to the bound and
			// drains to empty many times over.
			pushing := rng.Intn(2) == 0
			for n := rng.Intn(2*bound + 2); n > 0; n-- {
				if pushing {
					before := len(q.buf)
					next++
					if q.Push(next) {
						drops++
					}
					if len(model) == bound {
						model = model[1:]
						wantDrops++
					}
					model = append(model, next)
					if after := len(q.buf); after != before {
						grown++
						if want := min(max(2*before, 2), bound); q.Len() != before+1 || after != want {
							t.Fatalf("bound %d: storage went %d -> %d holding %d, want -> %d on the push that found it full",
								bound, before, after, q.Len(), want)
						}
					}
				} else {
					v, ok := q.Pop()
					if ok != (len(model) > 0) {
						t.Fatalf("bound %d: Pop ok = %v with %d in the model", bound, ok, len(model))
					}
					if ok {
						if v != model[0] {
							t.Fatalf("bound %d: Pop = %d, model has %d", bound, v, model[0])
						}
						model = model[1:]
					}
				}
				if q.Len() != len(model) || drops != wantDrops {
					t.Fatalf("bound %d: len %d drops %d, model len %d drops %d", bound, q.Len(), drops, len(model), wantDrops)
				}
				if len(q.buf) > bound {
					t.Fatalf("bound %d: storage grew to %d", bound, len(q.buf))
				}
			}
		}
		if len(q.buf) != bound {
			t.Errorf("bound %d: storage ended at %d: the bursts never filled it", bound, len(q.buf))
		}
		if grown > 8 {
			t.Errorf("bound %d: storage was reallocated %d times", bound, grown)
		}
	}
}

// TestQueueNeverShrinks: storage survives a drain, so refilling costs nothing.
func TestQueueNeverShrinks(t *testing.T) {
	q := Queue[int]{Bound: 64}
	for i := 0; i < 40; i++ {
		q.Push(i)
	}
	size := len(q.buf)
	for q.Len() > 0 {
		q.Pop()
	}
	if len(q.buf) != size {
		t.Fatalf("storage went %d -> %d on drain", size, len(q.buf))
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 40; i++ {
			q.Push(i)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}); allocs != 0 {
		t.Errorf("refilling a drained queue allocates %v objects, want 0", allocs)
	}
}

// TestQueuePopReleasesReferences: a popped slot no longer pins its element.
func TestQueuePopReleasesReferences(t *testing.T) {
	q := Queue[*int]{Bound: 4}
	q.Push(new(int))
	q.Pop()
	if q.buf[0] != nil {
		t.Error("popped slot still references its element")
	}
}

// TestQueueSteadyStateAllocatesNothing: once storage covers the depth in
// use, pushing and popping allocate nothing — at the bound, overwriting
// included.
func TestQueueSteadyStateAllocatesNothing(t *testing.T) {
	type msg struct {
		topic   string
		payload []byte
	}
	q := Queue[msg]{Bound: 256}
	m := msg{topic: "t", payload: []byte("p")}
	q.Push(m)
	q.Pop()
	if allocs := testing.AllocsPerRun(1000, func() {
		q.Push(m)
		q.Pop()
	}); allocs != 0 {
		t.Errorf("push/pop at depth 1 allocates %v objects, want 0", allocs)
	}
	for i := 0; i < 256; i++ {
		q.Push(m)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if !q.Push(m) {
			t.Fatal("a push at the bound dropped nothing")
		}
	}); allocs != 0 {
		t.Errorf("push at the bound allocates %v objects, want 0", allocs)
	}
	var empty Queue[msg]
	empty.Bound = 256
	if empty.buf != nil {
		t.Error("an unused queue holds storage")
	}
}
