package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

var telemetryOpts = plantOpts{scale: 2, poll: 20 * time.Millisecond}

// Stamps are due on a mean 250 ms period per variable with ±50 % jitter:
// evenly staggered stamps alias with the 20 ms poll ticker and move the
// median between runs.
const (
	stampMin = 125 * time.Millisecond
	stampMax = 375 * time.Millisecond
)

// warmUp is how long a stream workload runs its load before anything counts.
const warmUp = 2 * time.Second

// stamper is the open-loop generator of telemetry: on a 1 ms tick it gives
// every variable whose stamp is due, and whose previous stamp has arrived, a
// fresh increasing value.
type stamper struct {
	st     *stream
	next   []time.Time
	jit    *jitter
	paused atomic.Bool
}

func (sp *stamper) run(stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	st := sp.st
	isProbe := make([]bool, len(st.state))
	for _, i := range st.probes {
		isProbe[i] = true
	}
	for {
		select {
		case <-stop:
			return
		default:
		}
		now := time.Now()
		for i := range st.state {
			if sp.paused.Load() {
				break
			}
			if now.Before(sp.next[i]) {
				continue
			}
			s := &st.state[i]
			v := s.stamped.Load()
			if s.seen.Load() != v || (isProbe[i] && s.stored.Load() != v) {
				continue // the previous stamp is still on its way
			}
			s.due.Store(sp.next[i].UnixNano())
			s.stamped.Store(v + 1)
			s.issued.Add(1)
			if err := st.p.set(i, float64(v+1)); err != nil {
				st.r.failf("stamp %s: %v", st.p.series[i].topic, err)
			}
			if st.measuring.Load() {
				st.late.add(ms(now.Sub(sp.next[i])))
			}
			sp.next[i] = sp.next[i].Add(sp.jit.between(stampMin, stampMax))
		}
		time.Sleep(time.Millisecond)
	}
}

// settle pauses the stamper until every stamp issued so far has arrived
// (and, for probes, is stored).
func (sp *stamper) settle(timeout time.Duration) error {
	sp.paused.Store(true)
	deadline := time.Now().Add(timeout)
	for i := range sp.st.state {
		s := &sp.st.state[i]
		for s.seen.Load() != s.stamped.Load() {
			if time.Now().After(deadline) {
				return fmt.Errorf("%s: stamp %d never arrived (last seen %d)", sp.st.p.series[i].topic, s.stamped.Load(), s.seen.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, i := range sp.st.probes {
		s := &sp.st.state[i]
		// Asked of the historian itself: the watcher may have stopped.
		for s.stamped.Load() >= stampBase {
			if v, ok := sp.st.p.latest(i); ok && int64(v) == s.stamped.Load() {
				s.stored.Store(int64(v))
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s: stamp %d never reached the historian", sp.st.p.series[i].topic, s.stamped.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// resume restarts the schedule from now, keeping each variable's phase
// seeded.
func (sp *stamper) resume() {
	now := time.Now()
	for i := range sp.next {
		sp.next[i] = now.Add(sp.jit.between(0, stampMax))
	}
	sp.paused.Store(false)
}

// telemetryLoad is telemetry's load, running: the stamper, the plant-wide
// subscriber that accounts for every stamp, and the watcher of the probe
// series. operations runs the same load as its background.
type telemetryLoad struct {
	st       *stream
	sp       *stamper
	bc       *brokerConn
	consumed <-chan struct{}
	wg       sync.WaitGroup
}

// startTelemetryLoad stamps the first n series of the plant until stop
// closes.
func startTelemetryLoad(r *run, p *plant, n int, stop <-chan struct{}) (*telemetryLoad, error) {
	st := newStream(r, p, n)
	st.dueOf = func(i int, v int64) (time.Time, bool) {
		s := &st.state[i]
		return time.Unix(0, s.due.Load()), s.stamped.Load() == v
	}
	l := &telemetryLoad{st: st, sp: &stamper{st: st, next: make([]time.Time, n), jit: newJitter(r.cfg.seed + 1)}}
	var err error
	if l.bc, err = p.dialBroker(0); err != nil {
		return nil, err
	}
	// An acked session, like the historians': a plain subscription sheds
	// when a stall queues more than its ring holds, and the accounting
	// below must see every stamp.
	session := fmt.Sprintf("plantbench-telemetry-%d", r.cfg.seed)
	if l.consumed, err = l.bc.consume("factory/#", session, st.onSample(true)); err != nil {
		l.bc.close()
		return nil, err
	}
	l.sp.resume()
	l.wg.Add(2)
	go l.sp.run(stop, &l.wg)
	go st.watchProbes(stop, &l.wg)
	return l, nil
}

// startCounting empties the pipeline, opens the counted span on a window
// boundary (see stream.startCounting) and resumes the stamps.
func (l *telemetryLoad) startCounting() (time.Time, error) {
	if err := l.sp.settle(5 * time.Second); err != nil {
		return time.Time{}, err
	}
	from, err := l.st.startCounting()
	if err != nil {
		return time.Time{}, err
	}
	l.sp.resume()
	return from, nil
}

// finish lets every stamp in flight arrive, then checks stamp by stamp and
// series by series that each arrived exactly once and is stored: call it
// once stop has closed. The HTTP requests of the check are timed into query.
func (l *telemetryLoad) finish(from time.Time, query *dist) {
	if err := l.sp.settle(5 * time.Second); err != nil {
		l.st.r.failf("%v", err)
	}
	l.wg.Wait()
	if err := l.st.quiesce(10 * time.Second); err != nil {
		l.st.r.failf("%v", err)
	}
	l.st.verifyCounts(from, true, query)
	l.st.r.pass(int(l.st.delivered.Load()))
	l.bc.close()
	<-l.consumed
}

// runTelemetry is the steady plant a user runs, as an open loop at a fixed
// offered load well below saturation: every numeric variable stamped on a
// mean 250 ms period, one plant-wide subscriber, eight probe series watched
// in their historian, one dashboard connection reading beside the writes.
func runTelemetry(r *run) error {
	p, err := r.setUp(telemetryOpts)
	if err != nil {
		return err
	}
	defer p.shutdown()
	stamped := len(p.series)
	if r.cfg.trace {
		stamped-- // the last series is the stamp probe's
	}
	stop := make(chan struct{})
	load, err := startTelemetryLoad(r, p, stamped, stop)
	if err != nil {
		return err
	}
	st := load.st
	var bg sync.WaitGroup
	dash := &dashboard{}
	bg.Add(1)
	go dash.run(r, p, st.probes, r.cfg.seed+2, &st.measuring, stop, &bg)

	time.Sleep(warmUp)
	from, err := load.startCounting()
	if err != nil {
		close(stop)
		return err
	}
	// The stamp probe starts only now: counting starts on a pipeline that
	// has gone quiet, which a running probe would never let it do.
	var probe *stampProbe
	if r.cfg.trace {
		if probe, err = p.startStampProbe(stamped, r.cfg.seed+3, r.tr, stop); err != nil {
			close(stop)
			return err
		}
	}
	time.Sleep(warmUp / 4)

	before := st.delivered.Load()
	st.measuring.Store(true)
	win := openWindow()
	time.Sleep(time.Duration(r.cfg.seconds * float64(time.Second)))
	st.measuring.Store(false)
	win.close(r, int(st.delivered.Load()-before))

	close(stop)
	bg.Wait()
	if probe != nil {
		<-probe.done
	}
	var verify dist
	load.finish(from, &verify)

	r.observe("verify_query_ms", &verify, "ms")
	if err := r.report(timings{latency: &st.age, followup: &st.queryable, query: &dash.latency, queryable: &st.queryable, late: &st.late}); err != nil {
		return err
	}
	if r.cfg.trace {
		_, err = r.layerProbes(p, probe)
	}
	return err
}
