package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

var firehoseOpts = plantOpts{scale: 2, shards: 4, poll: 10 * time.Millisecond, durable: true}

const firehoseTick = 10 * time.Millisecond

// recoverReps is how many times each historian directory is re-opened; the
// median restart is reported.
const recoverReps = 11

// ticker is the saturating generator of firehose: every 10 ms it sets every
// variable to the tick index, far more than the plant can carry, so the
// driver poll coalesces and every stage downstream runs flat out.
type ticker struct {
	st     *stream
	times  []atomic.Int64 // unix ns of tick k
	k      atomic.Int64
	paused atomic.Bool
}

func (tk *ticker) run(stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	t := time.NewTicker(firehoseTick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		if tk.paused.Load() {
			continue
		}
		k := tk.k.Load() + 1
		if int(k) >= len(tk.times) {
			continue // the run outlived its tick table; checks below will say so
		}
		tk.times[k].Store(time.Now().UnixNano())
		tk.k.Store(k)
		v := stampBase + k
		for i := range tk.st.state {
			tk.st.state[i].stamped.Store(v)
			if err := tk.st.p.set(i, float64(v)); err != nil {
				tk.st.r.failf("tick %s: %v", tk.st.p.series[i].topic, err)
			}
		}
	}
}

// drain pauses the ticks and waits until the last value of every series has
// come out of the subscriber's end.
func (tk *ticker) drain(timeout time.Duration) error {
	tk.paused.Store(true)
	time.Sleep(2 * firehoseTick) // a tick in progress finishes
	deadline := time.Now().Add(timeout)
	for i := range tk.st.state {
		s := &tk.st.state[i]
		for s.seen.Load() != s.stamped.Load() {
			if time.Now().After(deadline) {
				return fmt.Errorf("%s: tick %d never arrived (last seen %d)", tk.st.p.series[i].topic, s.stamped.Load(), s.seen.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// runFirehose saturates a durable, four-shard plant as a closed loop: the
// plant itself paces the flow, and throughput is the result. A plant-wide
// acked session on shard 0 pulls every remote workcell over bridge links.
// After the window the historian directories are re-opened and must hold
// what the live stores held.
func runFirehose(r *run) error {
	p, err := r.setUp(firehoseOpts)
	if err != nil {
		return err
	}
	defer p.removeData()
	defer p.shutdown()
	stamped := len(p.series)
	if r.cfg.trace {
		stamped--
	}
	st := newStream(r, p, stamped)
	tk := &ticker{st: st, times: make([]atomic.Int64, int((r.cfg.seconds+60)/firehoseTick.Seconds()))}
	st.dueOf = func(_ int, v int64) (time.Time, bool) {
		k := v - stampBase
		if k < 1 || k > tk.k.Load() {
			return time.Time{}, false
		}
		return time.Unix(0, tk.times[k].Load()), true
	}

	bc, err := p.dialBroker(0)
	if err != nil {
		return err
	}
	consumed, err := bc.consume("factory/#", fmt.Sprintf("plantbench-firehose-%d", r.cfg.seed), st.onSample(false))
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	dash := &dashboard{}
	wg.Add(3)
	go tk.run(stop, &wg)
	go st.watchProbes(stop, &wg)
	go dash.run(r, p, st.probes, r.cfg.seed+2, &st.measuring, stop, &wg)
	var probe *stampProbe
	var halted sync.Once
	halt := func() {
		halted.Do(func() {
			close(stop)
			wg.Wait()
			if probe != nil {
				<-probe.done
			}
			bc.close()
			<-consumed
		})
	}
	defer halt()

	// Warm up: samples published before a bridge pull attaches on their
	// owner shard have no session to queue for, so tick until the
	// subscriber has heard from every series, then start counting on an
	// empty pipeline.
	time.Sleep(warmUp)
	for deadline := time.Now().Add(20 * time.Second); !st.heardAll(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("the plant-wide session never heard from every series")
		}
	}
	if err := tk.drain(20 * time.Second); err != nil {
		return err
	}
	from, err := st.startCounting()
	if err != nil {
		return err
	}
	if r.cfg.trace {
		if probe, err = p.startStampProbe(stamped, r.cfg.seed+3, r.tr, stop); err != nil {
			return err
		}
	}
	tk.paused.Store(false)
	time.Sleep(warmUp / 4)

	appended := p.totalAppended()
	st.measuring.Store(true)
	win := openWindow()
	time.Sleep(time.Duration(r.cfg.seconds * float64(time.Second)))
	st.measuring.Store(false)
	win.close(r, int(p.totalAppended()-appended))

	if err := tk.drain(20 * time.Second); err != nil {
		r.failf("%v", err)
	}
	halt()
	if err := st.quiesce(20 * time.Second); err != nil {
		r.failf("%v", err)
	}
	var verify dist
	st.verifyCounts(from, false, &verify)
	st.verifyOrder(from, 32, &verify)
	r.pass(int(st.delivered.Load()))
	if r.cfg.trace {
		// The probes need the live plant; recovery needs it shut down.
		if _, err := r.layerProbes(p, probe); err != nil {
			return err
		}
	}
	live := p.storedPoints()
	p.shutdown()

	// The follow-up operation of firehose is the restart of the storage
	// tier: every historian directory re-opened, per 1000 points recovered.
	// Nothing is written in between, so each of the recoverReps restarts
	// recovers the same state.
	var recoverMS dist
	for rep := 0; rep < recoverReps; rep++ {
		// The shut-down plant and the previous restart are garbage by now;
		// collected here, they do not bill this restart.
		runtime.GC()
		total, points := 0.0, 0
		for name, want := range live {
			took, got, err := p.reopen(name)
			if err != nil {
				return err
			}
			if got != want {
				r.failf("%s: recovered %d points, held %d before shutdown", name, got, want)
				continue
			}
			r.pass(1)
			total += ms(took)
			points += got
		}
		if points > 0 {
			recoverMS.add(total * 1000 / float64(points))
		}
	}

	r.observe("verify_query_ms", &verify, "ms")
	return r.report(timings{latency: &st.age, followup: &recoverMS, query: &dash.latency, queryable: &st.queryable, late: &dash.late})
}
