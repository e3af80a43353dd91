package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// stampBase is the first stamped value; everything the harness writes as a
// stamp is at or above it, everything else a variable may hold (emulator
// initial values, the set-up's pokes) is far below.
const stampBase = 1_000_000

// jitter draws seeded durations. Each open-loop generator owns one, so its
// schedule is a function of the run's seed alone.
type jitter struct{ rng *rand.Rand }

func newJitter(seed int64) *jitter { return &jitter{rand.New(rand.NewSource(seed))} }

func (j *jitter) between(lo, hi time.Duration) time.Duration {
	return lo + time.Duration(j.rng.Int63n(int64(hi-lo)))
}

// stream is the accounting both sample-stream workloads share: what the
// harness stamped into each series, what the plant-wide subscriber saw, and
// what the owning historian shows for the probe series.
type stream struct {
	r      *run
	p      *plant
	byName map[string]int // topic → series index
	state  []seriesState
	probes []int // series watched in their historian

	age       dist // ms: stamp due → plant-wide subscriber
	queryable dist // ms: stamp due → visible in the owning historian
	late      dist // ms: how late the generator stamped

	// dueOf returns when value v of series i was due; ok is false for a
	// value the harness never stamped.
	dueOf func(i int, v int64) (time.Time, bool)
	// measuring is set while stamps count towards the metrics.
	measuring atomic.Bool
	delivered atomic.Int64 // stamps seen by the subscriber, all series
}

// seriesState is one series' ledger. The stamper writes stamped/due, the
// subscriber writes seen/count, the watcher writes stored; all through
// atomics, and a value can only be seen or stored after it was stamped.
type seriesState struct {
	stamped atomic.Int64 // last value written to the emulator
	due     atomic.Int64 // unix ns that value was due (telemetry)
	seen    atomic.Int64 // last value the subscriber saw
	stored  atomic.Int64 // last value the historian showed (probes)
	count   atomic.Int64 // stamps the subscriber saw since counting began
	issued  atomic.Int64 // stamps written since counting began
}

func newStream(r *run, p *plant, series int) *stream {
	st := &stream{r: r, p: p, byName: make(map[string]int, series), state: make([]seriesState, series)}
	for i := 0; i < series; i++ {
		st.byName[p.series[i].topic] = i
		st.state[i].stamped.Store(stampBase - 1)
		st.state[i].seen.Store(stampBase - 1)
		st.state[i].stored.Store(stampBase - 1)
	}
	// Sixteen seeded probe series, at most one per machine while machines last.
	perm := r.rng.Perm(series)
	used := map[string]bool{}
	for _, i := range perm {
		if len(st.probes) < 16 && !used[p.series[i].machine] {
			used[p.series[i].machine] = true
			st.probes = append(st.probes, i)
		}
	}
	return st
}

// onSample is the plant-wide subscriber's handler. inOrder demands every
// stamp exactly once and in order (telemetry); otherwise values must only
// strictly increase (firehose, where the saturated poll coalesces stamps).
func (st *stream) onSample(inOrder bool) func(topic string, payload []byte) {
	return func(topic string, payload []byte) {
		now := time.Now()
		i, ok := st.byName[topic]
		if !ok {
			return
		}
		f, ok := sampleValue(payload)
		if !ok || f < stampBase {
			return
		}
		v := int64(f)
		s := &st.state[i]
		prev := s.seen.Load()
		switch {
		case v <= prev:
			st.r.failf("%s: value %d arrived after %d (duplicated or reordered)", topic, v, prev)
			return
		case inOrder && v != prev+1:
			st.r.failf("%s: value %d arrived after %d (lost %d)", topic, v, prev, v-prev-1)
		case v > s.stamped.Load():
			st.r.failf("%s: value %d arrived but only %d was stamped", topic, v, s.stamped.Load())
			return
		}
		s.seen.Store(v)
		s.count.Add(1)
		st.delivered.Add(1)
		if due, ok := st.dueOf(i, v); ok && st.measuring.Load() {
			st.age.add(ms(now.Sub(due)))
		}
	}
}

// heardAll reports whether the subscriber has seen a stamp of every series.
func (st *stream) heardAll() bool {
	for i := range st.state {
		if st.state[i].seen.Load() < stampBase {
			return false
		}
	}
	return true
}

// watchProbes polls the owning historian of every probe series until stop
// closes and records when each stamp became visible there.
func (st *stream) watchProbes(stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case <-stop:
			return
		default:
		}
		now := time.Now()
		for _, i := range st.probes {
			f, ok := st.p.latest(i)
			if !ok || f < stampBase {
				continue
			}
			v := int64(f)
			s := &st.state[i]
			if v <= s.stored.Load() {
				continue
			}
			s.stored.Store(v)
			if due, ok := st.dueOf(i, v); ok && st.measuring.Load() {
				st.queryable.add(ms(now.Sub(due)))
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// dashboard is the open-loop reader: one keep-alive HTTP connection issuing
// 50 requests a second, a seeded 70 % /aggregate (last 60 s, 1 s windows) and
// 30 % /range (last 2 s), on series the plant is writing. Each request is
// timed from when it was due, so a stall charges the requests queued behind
// it; a request that fails or finds nothing counts as failed.
type dashboard struct {
	latency dist // ms
	late    dist // ms the generator ran behind
}

func (d *dashboard) run(r *run, p *plant, series []int, seed int64, measuring *atomic.Bool, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	const period = 20 * time.Millisecond
	rng := rand.New(rand.NewSource(seed))
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	start := time.Now()
	for n := 0; ; n++ {
		due := start.Add(time.Duration(n) * period)
		select {
		case <-stop:
			return
		case <-time.After(time.Until(due)):
		}
		i := series[rng.Intn(len(series))]
		aggregate := rng.Intn(10) < 7
		sent := time.Now()
		err := d.request(p, client, i, aggregate, sent)
		if !measuring.Load() {
			continue
		}
		if err != nil {
			r.failf("dashboard: %v", err)
			continue
		}
		r.pass(1)
		d.latency.add(msSince(due))
		d.late.add(ms(sent.Sub(due)))
	}
}

func (d *dashboard) request(p *plant, client *http.Client, i int, aggregate bool, now time.Time) error {
	if aggregate {
		windows, _, err := p.aggregateCount(client, i, now.Add(-60*time.Second), now)
		if err == nil && windows == 0 {
			err = fmt.Errorf("/aggregate on %s returned no window", p.series[i].topic)
		}
		return err
	}
	pts, err := p.rangePoints(client, i, now.Add(-2*time.Second), now)
	if err == nil && len(pts) == 0 {
		err = fmt.Errorf("/range on %s returned no point in the last 2 s", p.series[i].topic)
	}
	return err
}

// quiesce waits until the historians' append counters have stood still for
// a few polls, so that everything published so far is stored.
func (st *stream) quiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	last, still := st.p.totalAppended(), 0
	for still < 5 {
		if time.Now().After(deadline) {
			return fmt.Errorf("historians still ingesting after %v", timeout)
		}
		time.Sleep(20 * time.Millisecond)
		if now := st.p.totalAppended(); now == last {
			still++
		} else {
			last, still = now, 0
		}
	}
	return nil
}

// startCounting opens the counted span on a 1 s window boundary with the
// pipeline empty: the historian stamps points with their arrival time and
// /aggregate counts whole windows, so the per-series counts compared at the
// end are exact only if nothing is in flight across the boundary.
func (st *stream) startCounting() (time.Time, error) {
	if err := st.quiesce(10 * time.Second); err != nil {
		return time.Time{}, err
	}
	boundary := time.Now().Truncate(time.Second).Add(time.Second)
	time.Sleep(time.Until(boundary) + 5*time.Millisecond)
	for i := range st.state {
		st.state[i].count.Store(0)
		st.state[i].issued.Store(0)
	}
	return boundary, nil
}

// verifyCounts compares, for every series, what the subscriber counted since
// from with what the owning historian's /aggregate windows count, and with
// the stamps issued when exact is set (telemetry: every stamp must arrive).
// The HTTP requests are timed into query.
func (st *stream) verifyCounts(from time.Time, exact bool, query *dist) {
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	to := time.Now().Add(time.Second)
	for i := range st.state {
		s := &st.state[i]
		t0 := time.Now()
		_, stored, err := st.p.aggregateCount(client, i, from, to)
		query.add(msSince(t0))
		seen, issued := s.count.Load(), s.issued.Load()
		switch {
		case err != nil:
			st.r.failf("%s: /aggregate: %v", st.p.series[i].topic, err)
		case int64(stored) != seen:
			st.r.failf("%s: historian counts %d points, the subscriber saw %d", st.p.series[i].topic, stored, seen)
		case exact && seen != issued:
			st.r.failf("%s: %d stamps issued, %d arrived", st.p.series[i].topic, issued, seen)
		default:
			st.r.pass(1)
		}
	}
}

// verifyOrder fetches /range for a seeded sample of series and checks that
// the stamped values strictly increase in stored order.
func (st *stream) verifyOrder(from time.Time, sample int, query *dist) {
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	for _, i := range st.r.rng.Perm(len(st.state))[:min(sample, len(st.state))] {
		t0 := time.Now()
		vals, err := st.p.rangePoints(client, i, from, time.Time{})
		query.add(msSince(t0))
		if err != nil {
			st.r.failf("%s: /range: %v", st.p.series[i].topic, err)
			continue
		}
		ok := true
		for k := 1; k < len(vals); k++ {
			if vals[k] >= stampBase && vals[k] <= vals[k-1] {
				st.r.failf("%s: /range holds %g after %g", st.p.series[i].topic, vals[k], vals[k-1])
				ok = false
				break
			}
		}
		if ok {
			st.r.pass(1)
		}
	}
}
