package historian

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// bruteAggregate recomputes an aggregate by scanning Range output with
// Point.Float — the reference the rollup cascade must match (modulo NaN,
// which the ingest path excludes by design).
func bruteAggregate(st *Store, series string, from, to time.Time) (Aggregate, bool) {
	agg := Aggregate{}
	sum := 0.0
	for _, p := range st.Range(series, from, to) {
		f, ok := p.Float()
		if !ok || math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		if agg.Count == 0 {
			agg.Min, agg.Max = f, f
		} else {
			if f < agg.Min {
				agg.Min = f
			}
			if f > agg.Max {
				agg.Max = f
			}
		}
		agg.Count++
		sum += f
	}
	if agg.Count == 0 {
		return agg, false
	}
	agg.Mean = sum / float64(agg.Count)
	return agg, true
}

func checkAggEquiv(t *testing.T, st *Store, series string, from, to time.Time) {
	t.Helper()
	want, wantOK := bruteAggregate(st, series, from, to)
	got, err := st.AggregateRange(series, from, to)
	if !wantOK {
		if err == nil {
			t.Fatalf("[%v,%v): AggregateRange = %+v, want ErrNoNumericData", from, to, got)
		}
		return
	}
	if err != nil {
		t.Fatalf("[%v,%v): AggregateRange error %v, brute force found %d points", from, to, err, want.Count)
	}
	if got.Count != want.Count || got.Min != want.Min || got.Max != want.Max ||
		math.Abs(got.Mean-want.Mean) > 1e-9*math.Max(1, math.Abs(want.Mean)) {
		t.Fatalf("[%v,%v): AggregateRange = %+v, want %+v", from, to, got, want)
	}
}

// TestAggregateWindowBoundaries hits the off-by-one surfaces: [from, to)
// must include points exactly at from, exclude points exactly at to, and
// behave identically whether the bounds are window-aligned (rollup-served)
// or offset by a nanosecond (edge-scanned).
func TestAggregateWindowBoundaries(t *testing.T) {
	st := NewStore(0)
	base := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	// One point per 250ms for 5 minutes: every 1s/10s/60s bucket filled.
	for i := 0; i < 1200; i++ {
		ts := base.Add(time.Duration(i) * 250 * time.Millisecond)
		st.Append("m", ts, []byte(fmt.Sprintf("%d.25", i)))
	}
	cases := []struct{ from, to time.Time }{
		{base, base.Add(time.Second)},                             // aligned 1s
		{base, base.Add(time.Minute)},                             // aligned 60s
		{base.Add(time.Second), base.Add(61 * time.Second)},       // aligned, offset start
		{base.Add(time.Nanosecond), base.Add(time.Minute)},        // unaligned start
		{base, base.Add(time.Minute - time.Nanosecond)},           // unaligned end
		{base.Add(250 * time.Millisecond), base.Add(time.Minute)}, // start on a point
		{base, base.Add(59*time.Second + 750*time.Millisecond)},   // end on a point: excluded
		{base.Add(17 * time.Millisecond), base.Add(293 * time.Second)},
		{base.Add(-time.Hour), base.Add(time.Hour)},    // covers everything
		{time.Time{}, base.Add(5 * time.Minute)},       // zero-time lower bound
		{base.Add(time.Hour), base.Add(2 * time.Hour)}, // beyond the data
		{base.Add(time.Minute), base.Add(time.Minute)}, // empty
	}
	for _, c := range cases {
		checkAggEquiv(t, st, "m", c.from, c.to)
	}
	// A window ending exactly on a point's timestamp excludes it; one
	// nanosecond later includes it.
	pt := base.Add(10 * time.Second)
	before, err := st.AggregateRange("m", base, pt)
	if err != nil {
		t.Fatal(err)
	}
	after, err := st.AggregateRange("m", base, pt.Add(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	if after.Count != before.Count+1 {
		t.Fatalf("inclusive-exclusive boundary: count %d -> %d, want +1", before.Count, after.Count)
	}
}

// TestAggregateEquivalenceRandom drives random ingest (jittered times,
// occasional out-of-order, mixed payload shapes) across enough points to
// seal several blocks, then checks random query windows against
// the brute-force scan.
func TestAggregateEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	st := NewStore(0)
	base := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	cur := base
	for i := 0; i < 3000; i++ {
		cur = cur.Add(time.Duration(rng.Intn(100)) * time.Millisecond)
		ts := cur
		if rng.Intn(20) == 0 { // out of order
			ts = cur.Add(-time.Duration(rng.Intn(5000)) * time.Millisecond)
		}
		var payload string
		switch rng.Intn(4) {
		case 0:
			payload = fmt.Sprintf("%d.5", rng.Intn(1000)) // a bare number
		case 1:
			payload = fmt.Sprintf(`{"machine":"m","value":%d.25}`, rng.Intn(100))
		case 2:
			payload = "not numeric"
		case 3:
			payload = fmt.Sprintf("%d", rng.Intn(1_000_000))
		}
		st.Append("m", ts, []byte(payload))
	}
	if st.Count("m") != 3000 {
		t.Fatalf("count %d, want 3000", st.Count("m"))
	}
	span := cur.Sub(base)
	for i := 0; i < 200; i++ {
		from := base.Add(time.Duration(rng.Int63n(int64(span))) - span/4)
		to := from.Add(time.Duration(rng.Int63n(int64(span))))
		checkAggEquiv(t, st, "m", from, to)
	}
}

// TestNaNAndNonFloatFallBackToRaw pins the raw-path guarantees: NaN/Inf
// texts, numbers in any spelling and non-numeric payloads are returned
// byte-exactly by Range (a sealed block keeps every payload as it arrived)
// and stay out of aggregates.
func TestNaNAndNonFloatFallBackToRaw(t *testing.T) {
	st := NewStore(0)
	base := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	payloads := []string{
		"NaN", "Inf", "-Inf", `{"value":"NaN"}`, "not numeric", "1e3",
		"007", "12.250", "12.25", `{"value":3.5}`, "null", "1.5",
	}
	// Enough rounds to seal multiple blocks through the mixed payloads.
	var want []string
	for i := 0; i < 2*blockSize; i++ {
		p := payloads[i%len(payloads)]
		st.Append("m", base.Add(time.Duration(i)*time.Millisecond), []byte(p))
		want = append(want, p)
	}
	got := st.Range("m", time.Time{}, base.Add(time.Hour))
	if len(got) != len(want) {
		t.Fatalf("Range returned %d points, want %d", len(got), len(want))
	}
	for i, p := range got {
		if string(p.Payload) != want[i] {
			t.Fatalf("point %d: payload %q, want %q (byte-exact through seal)", i, p.Payload, want[i])
		}
	}
	// Only the finite numerics participate in aggregation: per round that is
	// 1e3=1000, 7, 12.25 (x2 spellings... 007 and 12.250 are not valid JSON
	// numbers and stay non-numeric), 3.5, 1.5.
	agg, err := st.AggregateRange("m", time.Time{}, base.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	perRound := 5
	if wantCount := 2 * blockSize / len(payloads) * perRound; agg.Count != wantCount {
		t.Fatalf("aggregate count %d, want %d (NaN/Inf/non-JSON excluded)", agg.Count, wantCount)
	}
	if math.IsNaN(agg.Min) || math.IsNaN(agg.Max) || math.IsNaN(agg.Mean) {
		t.Fatalf("NaN leaked into aggregate: %+v", agg)
	}
}

// TestSealDuringConcurrentRead hammers Range/AggregateRange/Latest while a
// writer crosses many block-seal boundaries; run under -race this is the
// reader-vs-seal interlock proof, and the payload checks catch torn reads.
func TestSealDuringConcurrentRead(t *testing.T) {
	st := NewStore(0)
	base := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	const total = 6 * blockSize
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pts := st.Range("m", base, base.Add(time.Hour))
				for i := 1; i < len(pts); i++ {
					if pts[i].Time.Before(pts[i-1].Time) {
						t.Errorf("Range out of order at %d", i)
						return
					}
				}
				for _, p := range pts {
					if _, ok := p.Float(); !ok {
						t.Errorf("torn payload %q", p.Payload)
						return
					}
				}
				if _, err := st.AggregateRange("m", base, base.Add(time.Hour)); err != nil && len(pts) > 0 {
					t.Errorf("aggregate: %v", err)
					return
				}
				if len(pts) > 0 {
					if _, err := st.Latest("m"); err != nil {
						t.Errorf("latest: %v", err)
						return
					}
				}
			}
		}(r)
	}
	for i := 0; i < total; i++ {
		st.Append("m", base.Add(time.Duration(i)*time.Millisecond), []byte(fmt.Sprintf("%d.25", i)))
	}
	close(stop)
	wg.Wait()
	if got := st.Count("m"); got != total {
		t.Fatalf("count %d, want %d", got, total)
	}
}

// TestSealAllocs guards block sealing: a full 512-point head becomes a
// block without copying a point, so the block header is the one allocation
// (budget 1, no margin).
func TestSealAllocs(t *testing.T) {
	pts := make([]headPoint, blockSize)
	for i, sm := range bridgeSamples(blockSize, 1) {
		val, numeric := fastFloat(sm.Payload)
		pts[i] = headPoint{tn: int64(i), payload: sm.Payload, val: val, numeric: numeric}
	}
	sd := newSeriesData()
	sd.blocks = make([]*sealedBlock, 0, 128) // room for every measured seal
	allocs := testing.AllocsPerRun(100, func() {
		sd.head = pts
		sd.seal()
	})
	if allocs > 1 {
		t.Fatalf("sealing a %d-point block: %v allocs, budget 1", blockSize, allocs)
	}
}

// TestRetentionAcrossBlocks drops points out of sealed blocks (numeric and
// non-numeric payloads): Count stays exact, Range starts at the surviving
// point, and the oldest block disappears once fully drained.
func TestRetentionAcrossBlocks(t *testing.T) {
	const max = blockSize + blockSize/2
	for _, numeric := range []bool{true, false} {
		st := NewStore(max)
		base := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
		total := 3 * blockSize
		for i := 0; i < total; i++ {
			payload := fmt.Sprintf("%d.5", i)
			if !numeric {
				payload = fmt.Sprintf("raw-%d", i)
			}
			st.Append("m", base.Add(time.Duration(i)*time.Second), []byte(payload))
		}
		if got := st.Count("m"); got != max {
			t.Fatalf("numeric=%v: count %d, want exactly %d", numeric, got, max)
		}
		pts := st.Range("m", time.Time{}, base.Add(time.Hour))
		if len(pts) != max {
			t.Fatalf("numeric=%v: range %d, want %d", numeric, len(pts), max)
		}
		wantFirst := total - max
		if !pts[0].Time.Equal(base.Add(time.Duration(wantFirst) * time.Second)) {
			t.Fatalf("numeric=%v: oldest retained point at %v, want index %d", numeric, pts[0].Time, wantFirst)
		}
	}
}

// TestRollupsOutliveRetention documents the downsampling contract:
// aggregates over windows whose raw points have aged out still answer from
// rollup buckets.
func TestRollupsOutliveRetention(t *testing.T) {
	st := NewStore(10)
	base := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 100; i++ {
		st.Append("m", base.Add(time.Duration(i)*time.Second), []byte("1.5"))
	}
	if st.Count("m") != 10 {
		t.Fatalf("count %d, want 10", st.Count("m"))
	}
	// The first 90 seconds hold no raw points anymore, but the 1s buckets
	// still cover them.
	agg, err := st.AggregateRange("m", base, base.Add(50*time.Second))
	if err != nil {
		t.Fatalf("aggregate over aged-out window: %v", err)
	}
	if agg.Count != 50 || agg.Mean != 1.5 {
		t.Fatalf("aged-out window aggregate = %+v, want 50 points of 1.5", agg)
	}
}
