package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

var operationsOpts = plantOpts{scale: 1, poll: 50 * time.Millisecond}

// campaignParts × the 3-operation recipe is one campaign.
const campaignParts = 200

// runOperations is Fig. 2 and the operations tier, as a closed loop. First
// half of the window: two callers, each on its own broker connection, invoke
// a seeded sequence of modeled services through the generated stack. Second
// half: back-to-back 200-part campaigns, each audited against the historian
// over HTTP. Telemetry's load (every numeric variable stamped on a mean
// 250 ms period, accounted for stamp by stamp) runs in the background
// throughout.
func runOperations(r *run) error {
	p, err := r.setUp(operationsOpts)
	if err != nil {
		return err
	}
	defer p.shutdown()
	if r.cfg.callDelay > 0 {
		p.setCallDelay(r.cfg.callDelay)
	}
	stamped := len(p.series)
	if r.cfg.trace {
		stamped-- // the last series is the stamp probe's
	}
	stop := make(chan struct{})
	load, err := startTelemetryLoad(r, p, stamped, stop)
	if err != nil {
		return err
	}

	// Phase A. CallService correlates a reply to its request by topic
	// alone, so the two callers split the machines between them.
	half := time.Duration(r.cfg.seconds * float64(time.Second) / 2)
	var callMS dist
	var calls atomic.Int64
	var measuring atomic.Bool
	caller := func(n int, until time.Time, wg *sync.WaitGroup) {
		defer wg.Done()
		bc, err := p.dialBroker(0)
		if err != nil {
			r.failf("caller %d: %v", n, err)
			return
		}
		defer bc.close()
		var mine []*method
		machines := map[string]int{}
		for i := range p.methods {
			m := &p.methods[i]
			if _, ok := machines[m.machine]; !ok {
				machines[m.machine] = len(machines)
			}
			if machines[m.machine]%2 == n {
				mine = append(mine, m)
			}
		}
		rng := rand.New(rand.NewSource(r.cfg.seed + 10 + int64(n)))
		for id := int64(n); time.Now().Before(until); id += 2 {
			m := mine[rng.Intn(len(mine))]
			start := time.Now()
			err := bc.call(m)
			end := time.Now()
			calls.Add(1)
			if err != nil {
				r.failf("call: %v", err)
				continue
			}
			if measuring.Load() {
				r.pass(1)
				callMS.add(ms(end.Sub(start)))
				r.tr.add(id, "stack.call", "", start, end)
			}
		}
	}
	var callers sync.WaitGroup
	callers.Add(2)
	warmEnd := time.Now().Add(warmUp)
	go caller(0, warmEnd, &callers)
	go caller(1, warmEnd, &callers)
	callers.Wait()
	from, err := load.startCounting()
	if err != nil {
		close(stop)
		return err
	}
	var probe *stampProbe
	if r.cfg.trace {
		if probe, err = p.startStampProbe(stamped, r.cfg.seed+3, r.tr, stop); err != nil {
			close(stop)
			return err
		}
	}

	measuring.Store(true)
	load.st.measuring.Store(true)
	win := openWindow()
	callers.Add(2)
	go caller(0, win.start.Add(half), &callers)
	go caller(1, win.start.Add(half), &callers)
	callers.Wait()
	win.close(r, callMS.n())

	// Phase B.
	var campaignMS, auditMS dist
	steps, runMS, resumes := 0, 0.0, 0
	for n, until := 0, time.Now().Add(half); time.Now().Before(until) || n == 0; n++ {
		start := time.Now()
		res, err := p.runCampaign(fmt.Sprintf("plantbench-%d-%d", r.cfg.seed, n), campaignParts)
		if err != nil {
			r.failf("campaign %d: %v", n, err)
			continue
		}
		for _, msg := range res.problems {
			r.failf("%s", msg)
		}
		r.pass(1)
		campaignMS.add(msSince(start))
		auditMS.add(res.auditMS)
		steps += res.steps
		runMS += res.runMS
		if res.resumed {
			resumes++
		}
		r.tr.add(int64(n), "ops.campaign", "", start, time.Now())
	}

	load.st.measuring.Store(false)
	close(stop)
	if probe != nil {
		<-probe.done
	}
	var verify dist
	load.finish(from, &verify)
	r.observe("verify_query_ms", &verify, "ms")
	probeCalls := 0
	if r.cfg.trace {
		if probeCalls, err = r.layerProbes(p, probe); err != nil {
			return err
		}
	}

	// Every service call the harness issued, and nothing else, reached an
	// emulator: phase A's calls, the campaigns' steps, the probes' calls.
	if got, want := p.callCounts(), int(calls.Load())+steps+probeCalls; got != want {
		r.failf("emulators counted %d service calls, the harness issued %d", got, want)
	} else {
		r.pass(1)
	}

	r.set("ops.campaign_steps_per_s", float64(steps)/(runMS/1000))
	r.set("ops.flush_resumes", float64(resumes))
	return r.report(timings{latency: &callMS, followup: &campaignMS, query: &auditMS, queryable: &load.st.queryable, late: &load.st.late})
}
