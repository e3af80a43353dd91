package ops

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/smartfactory/sysml2conf/internal/broker"
	"github.com/smartfactory/sysml2conf/internal/machinesim"
	"github.com/smartfactory/sysml2conf/internal/resilience"
)

// maxRebinds bounds transport-failure rebinds per step.
const maxRebinds = 8

// ExecOptions tunes the campaign executor.
type ExecOptions struct {
	// Resolver maps a machine name to its TCP endpoint. Required.
	Resolver func(machine string) (string, error)
	// BrokerAddr returns the broker endpoint for ledger publishing; called
	// again on every reconnect so supervised broker restarts are followed.
	// Nil disables publishing (unit tests).
	BrokerAddr func() string
	// Ledger carries completions across executor restarts. A fresh one is
	// created when nil.
	Ledger *Ledger

	// Concurrency bounds in-flight steps (default 8).
	Concurrency int
	// StepTimeout bounds each machine call (default 2s).
	StepTimeout time.Duration
	// DialTimeout bounds machine dials (default 1s).
	DialTimeout time.Duration
	// Retries is how many times a service-level failure (the machine
	// answered "ERR") is retried on the same machine before the part is
	// abandoned — transport failures instead trigger a rebind and do not
	// consume service retries (default 2).
	Retries int
	// Backoff paces service retries (default 10ms..200ms, factor 2, jitter).
	Backoff resilience.Backoff
	// ProbePeriod paces liveness probes of lost machines (default 100ms).
	ProbePeriod time.Duration
	// NoCapacityGrace is how long a step may wait for a machine offering
	// its capability to come back before the part is abandoned with a
	// shortfall (default 2s).
	NoCapacityGrace time.Duration
	// FlushTimeout bounds the final ledger flush to the broker (default 15s).
	FlushTimeout time.Duration
}

func (o ExecOptions) withDefaults() ExecOptions {
	if o.Concurrency <= 0 {
		o.Concurrency = 8
	}
	if o.StepTimeout <= 0 {
		o.StepTimeout = 2 * time.Second
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = time.Second
	}
	if o.Retries <= 0 {
		o.Retries = 2
	}
	if o.Backoff.Initial <= 0 {
		o.Backoff = resilience.Backoff{Initial: 10 * time.Millisecond, Max: 200 * time.Millisecond, Factor: 2, Jitter: 0.2}
	}
	if o.ProbePeriod <= 0 {
		o.ProbePeriod = 100 * time.Millisecond
	}
	if o.NoCapacityGrace <= 0 {
		o.NoCapacityGrace = 2 * time.Second
	}
	if o.FlushTimeout <= 0 {
		o.FlushTimeout = 15 * time.Second
	}
	return o
}

// Shortfall explains one abandoned part.
type Shortfall struct {
	Part       int
	Step       string // step ID that could not run
	Capability string
	Reason     string
}

// Report is the campaign outcome.
type Report struct {
	Campaign  string
	Part      string
	Parts     int
	Completed int // parts whose every operation completed
	Failed    int // parts abandoned (see Shortfall)
	Halted    bool

	StepsCompleted  int // includes steps restored from a prior executor's ledger
	StepsRestored   int
	StepsFailed     int
	StepsCancelled  int
	StepsDispatched int
	StepsRebound    int // replanning events: steps moved to a surviving machine

	Shortfall    []Shortfall
	MachinesLost []string       // machines that were lost at least once
	PerMachine   map[string]int // completed steps by executing machine

	LedgerFlushed uint64
	LedgerTotal   uint64
	Elapsed       time.Duration
}

type stepStatus int

const (
	stepPending stepStatus = iota
	stepReady
	stepStarved
	stepRunning
	stepDone
	stepFailed
	stepCancelled
)

type machineState struct {
	info     MachineInfo
	conn     *machinesim.Conn
	lost     bool
	everLost bool
}

// stepQueue is an unbounded MPMC work queue (requeues from rebinds make a
// fixed-capacity channel unsafe).
type stepQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []int
	closed bool
}

func newStepQueue() *stepQueue {
	q := &stepQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *stepQueue) push(idx int) {
	q.mu.Lock()
	if !q.closed {
		q.items = append(q.items, idx)
		q.cond.Signal()
	}
	q.mu.Unlock()
}

func (q *stepQueue) pop() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return 0, false
	}
	idx := q.items[0]
	q.items = q.items[1:]
	return idx, true
}

func (q *stepQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Executor runs a compiled plan: ready steps dispatch concurrently over
// machinesim connections, service failures retry with backoff, transport
// failures mark the machine lost and rebind the step to a surviving
// machine with the same capability, and completions append to the
// idempotent ledger whose events a publisher goroutine submits, as one
// (session, seq) stream, to a broker.Outbox.
type Executor struct {
	plan   *Plan
	opts   ExecOptions
	ledger *Ledger

	mu           sync.Mutex
	status       []stepStatus
	depsLeft     []int
	dependents   [][]int
	rebinds      []int
	starvedSince []time.Time
	machines     map[string]*machineState
	rr           map[string]int
	partFailed   map[int]bool
	partDone     map[int]int
	remaining    int
	stats        Report

	queue       *stepQueue
	stopCh      chan struct{}
	stopOnce    sync.Once
	workersDone chan struct{}
	pubDone     chan struct{}
	pubWake     chan struct{}
}

// NewExecutor prepares an executor for the plan. When opts.Ledger already
// records completions (a prior executor's run), those steps are restored
// as done and are neither re-dispatched nor re-published.
func NewExecutor(plan *Plan, opts ExecOptions) *Executor {
	opts = opts.withDefaults()
	led := opts.Ledger
	if led == nil {
		led = NewLedger(plan.Campaign)
	}
	e := &Executor{
		plan:         plan,
		opts:         opts,
		ledger:       led,
		status:       make([]stepStatus, len(plan.Steps)),
		depsLeft:     make([]int, len(plan.Steps)),
		dependents:   make([][]int, len(plan.Steps)),
		rebinds:      make([]int, len(plan.Steps)),
		starvedSince: make([]time.Time, len(plan.Steps)),
		machines:     map[string]*machineState{},
		rr:           map[string]int{},
		partFailed:   map[int]bool{},
		partDone:     map[int]int{},
		queue:        newStepQueue(),
		stopCh:       make(chan struct{}),
		workersDone:  make(chan struct{}),
		pubDone:      make(chan struct{}),
		pubWake:      make(chan struct{}, 1),
	}
	for name, info := range plan.Machines {
		e.machines[name] = &machineState{info: info}
	}
	for _, st := range plan.Steps {
		e.depsLeft[st.Index] = len(st.DependsOn)
		for _, d := range st.DependsOn {
			e.dependents[d] = append(e.dependents[d], st.Index)
		}
	}
	e.remaining = len(plan.Steps)
	// Restore prior completions: idempotent step IDs make the restart safe
	// (mirroring the broker publisher's (session, seq) dedup).
	for _, st := range plan.Steps {
		if led.Completed(st.ID) {
			e.status[st.Index] = stepDone
			e.remaining--
			e.stats.StepsRestored++
			e.stats.StepsCompleted++
			e.partDone[st.Part]++
			for _, d := range e.dependents[st.Index] {
				e.depsLeft[d]--
			}
		}
	}
	return e
}

// Ledger returns the executor's completion ledger (hand it to a successor
// executor to resume a halted campaign).
func (e *Executor) Ledger() *Ledger { return e.ledger }

// Halt stops dispatching new steps; in-flight calls finish. Run returns
// once they drain and the ledger flushes.
func (e *Executor) Halt() {
	e.stopOnce.Do(func() {
		close(e.stopCh)
		e.queue.close()
	})
}

func (e *Executor) stopped() bool {
	select {
	case <-e.stopCh:
		return true
	default:
		return false
	}
}

// Run executes the plan to completion (or Halt) and returns the campaign
// report. The error is non-nil only when the final ledger flush to the
// broker could not complete within FlushTimeout.
func (e *Executor) Run() (*Report, error) {
	start := time.Now()
	e.mu.Lock()
	for _, st := range e.plan.Steps {
		if e.status[st.Index] == stepPending && e.depsLeft[st.Index] == 0 {
			e.status[st.Index] = stepReady
			e.queue.push(st.Index)
		}
	}
	allDone := e.remaining == 0
	e.mu.Unlock()
	if allDone {
		e.queue.close()
	}

	var ob *broker.Outbox
	if e.opts.BrokerAddr != nil {
		ob = broker.NewOutbox("ops: ledger", func() (*broker.Client, error) {
			return broker.DialClient(e.opts.BrokerAddr())
		}, resilience.Backoff{Initial: 20 * time.Millisecond, Max: 500 * time.Millisecond, Factor: 2, Jitter: 0.2})
		go e.publish(ob)
	}

	maintDone := make(chan struct{})
	go e.maintain(maintDone)

	var wg sync.WaitGroup
	for i := 0; i < e.opts.Concurrency; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx, ok := e.queue.pop()
				if !ok {
					return
				}
				e.execute(idx)
			}
		}()
	}
	wg.Wait()
	close(e.workersDone)
	<-maintDone

	var flushErr error
	if ob != nil {
		flushErr = e.flushLedger(ob)
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ms := range e.machines {
		if ms.conn != nil {
			ms.conn.Close()
			ms.conn = nil
		}
	}
	rep := e.stats
	rep.Campaign = e.plan.Campaign
	rep.Part = e.plan.Part
	rep.Parts = e.plan.Parts
	rep.Halted = e.stopped() && e.remaining > 0
	for part, done := range e.partDone {
		if done == len(e.plan.Recipe.Operations) && !e.partFailed[part] {
			rep.Completed++
		}
	}
	rep.Failed = len(e.partFailed)
	rep.Shortfall = append([]Shortfall(nil), e.stats.Shortfall...)
	sort.Slice(rep.Shortfall, func(i, j int) bool { return rep.Shortfall[i].Part < rep.Shortfall[j].Part })
	for name, ms := range e.machines {
		if ms.everLost {
			rep.MachinesLost = append(rep.MachinesLost, name)
		}
	}
	sort.Strings(rep.MachinesLost)
	rep.PerMachine = e.ledger.PerMachine()
	rep.LedgerFlushed = e.ledger.Flushed()
	rep.LedgerTotal = e.ledger.LastSeq()
	rep.Elapsed = time.Since(start)
	return &rep, flushErr
}

// execute runs one step to a terminal state or requeues it after a rebind.
func (e *Executor) execute(idx int) {
	st := e.plan.Steps[idx]
	e.mu.Lock()
	if e.status[idx] != stepReady {
		e.mu.Unlock()
		return
	}
	machine, ok := e.pickMachineLocked(st)
	if !ok {
		e.status[idx] = stepStarved
		if e.starvedSince[idx].IsZero() {
			e.starvedSince[idx] = time.Now()
		}
		e.mu.Unlock()
		return
	}
	e.starvedSince[idx] = time.Time{}
	e.status[idx] = stepRunning
	e.stats.StepsDispatched++
	e.mu.Unlock()

	serviceAttempts := 0
	attempts := 0
	for {
		attempts++
		conn, err := e.connFor(machine)
		if err == nil {
			_, err = conn.Call(st.Operation.Capability, st.Operation.Args...)
		}
		switch {
		case err == nil:
			e.complete(idx, machine, attempts)
			return
		case machinesim.IsServiceError(err):
			// The machine is alive and rejected the operation: retrying on
			// another machine would not help a deterministic failure, so
			// retry here with backoff, then abandon the part.
			serviceAttempts++
			if serviceAttempts > e.opts.Retries {
				e.failStep(idx, fmt.Sprintf("service %s failed on %s after %d attempts: %v",
					st.Operation.Capability, machine, serviceAttempts, err))
				return
			}
			select {
			case <-time.After(e.opts.Backoff.Delay(serviceAttempts - 1)):
			case <-e.stopCh:
				e.requeue(idx)
				return
			}
		default:
			// Transport failure: the machine is unreachable. Mark it lost
			// (the prober re-admits it if it comes back) and rebind the
			// step to a surviving machine with the same capability.
			e.markLost(machine)
			e.mu.Lock()
			e.rebinds[idx]++
			over := e.rebinds[idx] > maxRebinds
			e.mu.Unlock()
			if over {
				e.failStep(idx, fmt.Sprintf("step exceeded %d rebinds, last machine %s: %v",
					maxRebinds, machine, err))
				return
			}
			e.requeue(idx)
			return
		}
	}
}

// pickMachineLocked resolves the step's binding against live machines:
// the planned machine when it is live, otherwise any surviving machine
// offering the capability (round-robin). Returns false when no live
// machine offers it.
func (e *Executor) pickMachineLocked(st *Step) (string, bool) {
	if ms := e.machines[st.Machine]; ms != nil && !ms.lost {
		return st.Machine, true
	}
	offers := e.plan.Capability[st.Operation.Capability]
	n := len(offers)
	start := e.rr[st.Operation.Capability]
	for i := 0; i < n; i++ {
		m := offers[(start+i)%n]
		ms := e.machines[m.Name]
		if ms == nil || ms.lost {
			continue
		}
		e.rr[st.Operation.Capability] = start + i + 1
		if st.Machine != m.Name {
			st.Machine = m.Name
			e.stats.StepsRebound++
		}
		return m.Name, true
	}
	return "", false
}

func (e *Executor) connFor(machine string) (*machinesim.Conn, error) {
	e.mu.Lock()
	ms := e.machines[machine]
	if ms == nil {
		e.mu.Unlock()
		return nil, fmt.Errorf("ops: unknown machine %q", machine)
	}
	if ms.conn != nil {
		conn := ms.conn
		e.mu.Unlock()
		return conn, nil
	}
	e.mu.Unlock()
	addr, err := e.opts.Resolver(machine)
	if err != nil {
		return nil, err
	}
	conn, err := machinesim.DialMachine(addr, e.opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	conn.SetCallTimeout(e.opts.StepTimeout)
	e.mu.Lock()
	defer e.mu.Unlock()
	if ms.conn != nil {
		conn.Close()
		return ms.conn, nil
	}
	ms.conn = conn
	return conn, nil
}

func (e *Executor) markLost(machine string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ms := e.machines[machine]
	if ms == nil {
		return
	}
	ms.lost = true
	ms.everLost = true
	if ms.conn != nil {
		ms.conn.Close()
		ms.conn = nil
	}
}

func (e *Executor) requeue(idx int) {
	e.mu.Lock()
	e.status[idx] = stepReady
	e.mu.Unlock()
	e.queue.push(idx)
}

func (e *Executor) complete(idx int, machine string, attempts int) {
	st := e.plan.Steps[idx]
	topic := CampaignTopic(e.plan.Campaign, e.plan.Machines[machine])
	e.ledger.Record(st.ID, st.Part, st.Op, machine, topic, attempts)
	e.mu.Lock()
	e.status[idx] = stepDone
	e.stats.StepsCompleted++
	e.partDone[st.Part]++
	for _, d := range e.dependents[idx] {
		e.depsLeft[d]--
		if e.depsLeft[d] == 0 && e.status[d] == stepPending && !e.partFailed[e.plan.Steps[d].Part] {
			e.status[d] = stepReady
			e.queue.push(d)
		}
	}
	e.stepTerminalLocked()
	e.mu.Unlock()
	e.wakePublisher()
}

func (e *Executor) failStep(idx int, reason string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.failStepLocked(idx, reason)
}

func (e *Executor) failStepLocked(idx int, reason string) {
	st := e.plan.Steps[idx]
	if e.status[idx] == stepDone || e.status[idx] == stepFailed || e.status[idx] == stepCancelled {
		return
	}
	e.status[idx] = stepFailed
	e.stats.StepsFailed++
	e.stepTerminalLocked()
	if !e.partFailed[st.Part] {
		e.partFailed[st.Part] = true
		e.stats.Shortfall = append(e.stats.Shortfall, Shortfall{
			Part: st.Part, Step: st.ID, Capability: st.Operation.Capability, Reason: reason,
		})
	}
	// Cancel the part's remaining un-started steps; in-flight ones finish
	// on their own (their completions stay in the ledger, the part still
	// counts as failed).
	for _, other := range e.plan.Steps {
		if other.Part != st.Part || other.Index == idx {
			continue
		}
		switch e.status[other.Index] {
		case stepPending, stepReady, stepStarved:
			e.status[other.Index] = stepCancelled
			e.stats.StepsCancelled++
			e.stepTerminalLocked()
		}
	}
}

// stepTerminalLocked accounts one step reaching a terminal state and
// closes the queue when the plan is exhausted.
func (e *Executor) stepTerminalLocked() {
	e.remaining--
	if e.remaining == 0 {
		e.queue.close()
	}
}

// maintain is the replanner's background half: it probes lost machines
// back to life and watches starved steps — steps whose capability has no
// live machine — re-admitting them on recovery or abandoning their part
// with a shortfall once the grace period expires.
func (e *Executor) maintain(done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(e.opts.ProbePeriod / 2)
	defer ticker.Stop()
	for {
		select {
		case <-e.workersDone:
			return
		case <-e.stopCh:
			return
		case <-ticker.C:
		}
		// Probe lost machines.
		e.mu.Lock()
		var lost []string
		for name, ms := range e.machines {
			if ms.lost {
				lost = append(lost, name)
			}
		}
		e.mu.Unlock()
		for _, name := range lost {
			addr, err := e.opts.Resolver(name)
			if err != nil {
				continue
			}
			dialTO := e.opts.ProbePeriod
			if dialTO > e.opts.DialTimeout {
				dialTO = e.opts.DialTimeout
			}
			conn, err := machinesim.DialMachine(addr, dialTO)
			if err != nil {
				continue
			}
			conn.SetCallTimeout(e.opts.StepTimeout)
			if err := conn.Ping(); err != nil {
				conn.Close()
				continue
			}
			e.mu.Lock()
			ms := e.machines[name]
			if ms != nil && ms.lost {
				ms.lost = false
				if ms.conn != nil {
					ms.conn.Close()
				}
				ms.conn = conn
			} else {
				conn.Close()
			}
			e.mu.Unlock()
		}
		// Re-admit or abandon starved steps.
		now := time.Now()
		e.mu.Lock()
		for idx, status := range e.status {
			if status != stepStarved {
				continue
			}
			st := e.plan.Steps[idx]
			live := false
			for _, m := range e.plan.Capability[st.Operation.Capability] {
				if ms := e.machines[m.Name]; ms != nil && !ms.lost {
					live = true
					break
				}
			}
			if live {
				e.status[idx] = stepReady
				e.starvedSince[idx] = time.Time{}
				e.queue.push(idx)
				continue
			}
			if now.Sub(e.starvedSince[idx]) > e.opts.NoCapacityGrace {
				e.failStepLocked(idx, fmt.Sprintf("no live machine offers capability %q (grace %v expired)",
					st.Operation.Capability, e.opts.NoCapacityGrace))
			}
		}
		e.mu.Unlock()
	}
}

func (e *Executor) wakePublisher() {
	select {
	case e.pubWake <- struct{}{}:
	default:
	}
}

// publish submits ledger entries to the outbox in seq order, from this one
// goroutine, so the broker's (session, seq) high-water mark sees the
// campaign's stream ascending; the outbox replays what a lost connection
// left unacknowledged, and the mark makes that — and a successor executor
// re-submitting a restored ledger — idempotent. It returns once the workers
// are done and every entry is submitted.
func (e *Executor) publish(ob *broker.Outbox) {
	defer close(e.pubDone)
	session := e.ledger.Session()
	for next := e.ledger.Flushed() + 1; ; {
		// Idleness is read before the entry: workers append and only then go
		// idle, so once they are seen idle a missing entry is never coming.
		// The other way round a worker can append between the two reads, and
		// the publisher would leave with that entry unsubmitted.
		idle := e.workersIdle()
		if entry, ok := e.ledger.Entry(next); ok {
			seq := entry.Seq
			ob.Submit(entry.Topic, marshalEvent(e.plan.Campaign, entry), false, session, seq, func(_ bool, err error) {
				if err == nil {
					e.ledger.SetFlushed(seq)
				}
			})
			next++
			continue
		}
		if idle {
			return
		}
		select {
		case <-e.pubWake:
		case <-e.workersDone:
		}
	}
}

func (e *Executor) workersIdle() bool {
	select {
	case <-e.workersDone:
		return true
	default:
		return false
	}
}

// flushLedger gives the publisher and then the broker FlushTimeout in all
// to submit and acknowledge every ledger entry, then closes the outbox,
// which fails whatever is left and frees a publisher parked on a full
// window.
func (e *Executor) flushLedger(ob *broker.Outbox) error {
	deadline := time.Now().Add(e.opts.FlushTimeout)
	timer := time.NewTimer(e.opts.FlushTimeout)
	defer timer.Stop()
	var err error
	select {
	case <-e.pubDone:
		err = ob.Flush(time.Until(deadline))
	case <-timer.C:
		err = errors.New("ops: ledger publisher still submitting")
	}
	ob.Close()
	<-e.pubDone
	if err != nil {
		return fmt.Errorf("ops: ledger flush incomplete after %v: %d of %d events acknowledged: %w",
			e.opts.FlushTimeout, e.ledger.Flushed(), e.ledger.LastSeq(), err)
	}
	return nil
}
