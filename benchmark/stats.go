package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// metric is one reported number with its unit, in the shape the result line
// and the run records carry.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// dist collects the samples behind a percentile. Workloads that time
// operations from several goroutines share one dist, hence the lock.
type dist struct {
	mu sync.Mutex
	v  []float64
}

func (d *dist) add(x float64) {
	d.mu.Lock()
	d.v = append(d.v, x)
	d.mu.Unlock()
}

func (d *dist) n() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.v)
}

// sorted returns a sorted copy of the samples.
func (d *dist) sorted() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return sortedCopy(d.v)
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile (0..1) of the samples by linear
// interpolation, 0 for an empty dist.
func (d *dist) quantile(q float64) float64 { return quantileOf(d.sorted(), q) }

func quantileOf(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantileOf(sortedCopy(v), 0.5) }

// distSummary is what a run record keeps of a dist: the sample count behind
// every percentile and the highest percentile that still has at least ten
// samples beyond it (ROADMAP item 1(e)).
type distSummary struct {
	N             int     `json:"n"`
	P50           float64 `json:"p50"`
	P90           float64 `json:"p90"`
	P99           float64 `json:"p99"`
	Max           float64 `json:"max"`
	HighestPct    float64 `json:"highest_supported_pct"` // 0: not even the median
	HighestPctVal float64 `json:"highest_supported_value"`
	SamplesBeyond int     `json:"samples_beyond_highest"`
	Unit          string  `json:"unit"`
}

func (d *dist) summary(unit string) distSummary {
	s := d.sorted()
	out := distSummary{N: len(s), Unit: unit}
	if len(s) == 0 {
		return out
	}
	out.P50, out.P90, out.P99 = quantileOf(s, 0.5), quantileOf(s, 0.9), quantileOf(s, 0.99)
	out.Max = s[len(s)-1]
	// The highest percentile with >= 10 samples beyond it, from the usual
	// ladder; below 20 samples not even the median qualifies.
	for _, p := range []float64{99.99, 99.9, 99, 95, 90, 75, 50} {
		beyond := int(float64(len(s)) * (100 - p) / 100)
		if beyond >= 10 {
			out.HighestPct, out.HighestPctVal, out.SamplesBeyond = p, quantileOf(s, p/100), beyond
			break
		}
	}
	return out
}

func (s distSummary) String() string {
	if s.N == 0 {
		return "n=0"
	}
	hi := "no percentile has 10 samples beyond it"
	if s.HighestPct > 0 {
		hi = fmt.Sprintf("highest supported p%g=%.4g (%d beyond)", s.HighestPct, s.HighestPctVal, s.SamplesBeyond)
	}
	return fmt.Sprintf("n=%d p50=%.4g p90=%.4g p99=%.4g max=%.4g %s; %s", s.N, s.P50, s.P90, s.P99, s.Max, s.Unit, hi)
}
