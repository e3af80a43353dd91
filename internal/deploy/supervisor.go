package deploy

import (
	"fmt"
	"sync"
	"time"

	"github.com/smartfactory/sysml2conf/internal/k8s"
	"github.com/smartfactory/sysml2conf/internal/resilience"
)

// Event types recorded by the pod supervisor.
const (
	EventStarted   = "Started"
	EventUnhealthy = "Unhealthy"
	EventRestarted = "Restarted"
	EventCrashLoop = "CrashLoopBackOff"
	EventNotReady  = "NotReady"
	EventReady     = "Ready"
	EventKilled    = "Killed"
)

// Event is one supervision lifecycle event (pod started, restarted, went
// unready, entered CrashLoopBackOff, ...).
type Event struct {
	Time    time.Time
	Pod     string
	Type    string
	Message string
}

// maxEvents bounds the in-memory event log.
const maxEvents = 4096

// podRuntime is a pod's supervisor: its probe policy and the handles of its
// probe loop.
type podRuntime struct {
	policy k8s.PodPolicy

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

func (rt *podRuntime) halt() {
	rt.stopOnce.Do(func() { close(rt.stop) })
}

// probeUnit returns the simulated duration of one manifest "second".
func (c *Cluster) probeUnit() time.Duration {
	if c.ProbeUnit > 0 {
		return c.ProbeUnit
	}
	return 20 * time.Millisecond
}

// probeParams are a probe's manifest settings scaled to simulated time,
// with the Kubernetes defaults filled in (period 10s, threshold 3).
type probeParams struct {
	delay     time.Duration
	period    time.Duration
	threshold int
}

func scaleProbe(p *k8s.ProbeSpec, unit time.Duration) probeParams {
	out := probeParams{period: 10 * unit, threshold: 3}
	if p == nil {
		return out
	}
	if p.PeriodSeconds > 0 {
		out.period = time.Duration(p.PeriodSeconds) * unit
	}
	if p.FailureThreshold > 0 {
		out.threshold = p.FailureThreshold
	}
	if p.InitialDelaySeconds > 0 {
		out.delay = time.Duration(p.InitialDelaySeconds) * unit
	}
	return out
}

// startSupervisor gives the pod a supervisor and begins probing it.
func (c *Cluster) startSupervisor(p *podRecord, pol k8s.PodPolicy) {
	rt := &podRuntime{
		policy: pol,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	c.mu.Lock()
	p.rt = rt
	c.mu.Unlock()
	go c.supervise(p, rt)
}

// haltSupervisors halts the pods' probe loops and waits for them to exit.
func (c *Cluster) haltSupervisors(pods ...*podRecord) {
	c.mu.Lock()
	rts := make([]*podRuntime, 0, len(pods))
	for _, p := range pods {
		if p.rt != nil {
			rts = append(rts, p.rt)
		}
	}
	c.mu.Unlock()
	for _, rt := range rts {
		rt.halt()
	}
	for _, rt := range rts {
		<-rt.done
	}
}

// supervise is the per-pod probe loop: liveness failures beyond the
// threshold restart the component with exponential backoff (repeated
// restart failures surface as CrashLoopBackOff); readiness failures only
// flip the pod's Ready condition.
func (c *Cluster) supervise(p *podRecord, rt *podRuntime) {
	defer close(rt.done)
	unit := c.probeUnit()
	live := scaleProbe(rt.policy.Liveness, unit)
	ready := scaleProbe(rt.policy.Readiness, unit)

	var liveCh, readyCh <-chan time.Time
	if rt.policy.Liveness != nil {
		t := time.NewTicker(live.period)
		defer t.Stop()
		liveCh = t.C
	}
	if rt.policy.Readiness != nil {
		t := time.NewTicker(ready.period)
		defer t.Stop()
		readyCh = t.C
	}

	epoch := time.Now() // reset after every restart, gates initial delays
	failures := 0
	for {
		select {
		case <-rt.stop:
			return

		case <-liveCh:
			if time.Since(epoch) < live.delay {
				continue
			}
			err := c.probe(p, false)
			if err == nil {
				failures = 0
				continue
			}
			failures++
			if failures < live.threshold {
				continue
			}
			failures = 0
			c.recordEvent(p.status.Name, EventUnhealthy, err.Error())
			if !c.restartPod(p, rt) {
				return // halted mid-restart
			}
			epoch = time.Now()

		case <-readyCh:
			if time.Since(epoch) < ready.delay {
				continue
			}
			c.setReady(p, c.probe(p, true))
		}
	}
}

// restartPod bounces the component behind a pod: stop, wait backoff, start.
// Start failures retry with growing (capped) backoff; after
// crashLoopThreshold consecutive failures the pod is marked
// CrashLoopBackOff and keeps retrying at the capped pace until it heals or
// the supervisor halts. Returns false when halted.
func (c *Cluster) restartPod(p *podRecord, rt *podRuntime) bool {
	const crashLoopThreshold = 5
	unit := c.probeUnit()
	backoff := resilience.Backoff{Initial: 2 * unit, Factor: 2, Max: 64 * unit}
	pod := &p.status

	c.mu.Lock()
	pod.Phase = PodPending
	pod.Ready = false
	pod.ReadyReason = "restarting"
	c.mu.Unlock()
	c.stopPod(p)

	for attempt := 0; ; attempt++ {
		timer := time.NewTimer(backoff.Delay(attempt))
		select {
		case <-rt.stop:
			timer.Stop()
			return false
		case <-timer.C:
		}
		err := c.startPod(p)
		if err == nil {
			c.mu.Lock()
			pod.Phase = PodRunning
			pod.Ready = true
			pod.ReadyReason = ""
			pod.CrashLoop = false
			pod.Error = ""
			pod.Restarts++
			restarts := pod.Restarts
			c.mu.Unlock()
			c.recordEvent(pod.Name, EventRestarted,
				fmt.Sprintf("%s restarted (restart #%d)", pod.Component, restarts))
			return true
		}
		c.mu.Lock()
		pod.Error = err.Error()
		crashed := attempt+1 == crashLoopThreshold
		if crashed {
			pod.CrashLoop = true
			pod.Phase = PodFailed
		}
		c.mu.Unlock()
		if crashed {
			c.recordEvent(pod.Name, EventCrashLoop, err.Error())
		}
	}
}

// setReady updates a pod's Ready condition, emitting an event on
// transitions.
func (c *Cluster) setReady(p *podRecord, err error) {
	c.mu.Lock()
	pod := &p.status
	was := pod.Ready
	if err == nil {
		pod.Ready = true
		pod.ReadyReason = ""
	} else {
		pod.Ready = false
		pod.ReadyReason = err.Error()
	}
	now := pod.Ready
	name := pod.Name
	c.mu.Unlock()
	if was == now {
		return
	}
	if now {
		c.recordEvent(name, EventReady, "")
	} else {
		c.recordEvent(name, EventNotReady, err.Error())
	}
}

func (c *Cluster) recordEvent(pod, typ, msg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, Event{Time: time.Now(), Pod: pod, Type: typ, Message: msg})
	if len(c.events) > maxEvents {
		c.events = c.events[len(c.events)-maxEvents:]
	}
}

// Events returns a copy of the supervision event log, oldest first.
func (c *Cluster) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// PodStatus returns the supervision view of one pod by deployment or pod
// name.
func (c *Cluster) PodStatus(name string) (Pod, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.pods[name]; ok {
		return p.status, true
	}
	if p, ok := c.pods[name+"-0"]; ok {
		return p.status, true
	}
	return Pod{}, false
}

// AllReady reports whether every pod is Running and Ready.
func (c *Cluster) AllReady() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.pods) == 0 {
		return false
	}
	for _, p := range c.pods {
		if p.status.Phase != PodRunning || !p.status.Ready {
			return false
		}
	}
	return true
}

// KillPod abruptly tears down the component behind a Deployment while
// leaving its pod and supervision state in place — simulating a container
// crash. The liveness probe notices and the supervisor restarts it.
func (c *Cluster) KillPod(deploymentName string) error {
	podName := deploymentName + "-0"
	c.mu.Lock()
	p, ok := c.pods[podName]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("deploy: pod %s not found", podName)
	}
	c.recordEvent(podName, EventKilled, p.status.Component+" killed")
	c.stopPod(p)
	return nil
}

// PartitionComponent isolates (or heals, on=false) a fault-injected
// component: existing connections are severed and new ones refused while
// partitioned. Component names follow the injector's convention: "broker",
// "opcua:<server>", "machine:<name>".
func (c *Cluster) PartitionComponent(name string, on bool) error {
	if c.FaultInjector == nil {
		return fmt.Errorf("deploy: no FaultInjector configured")
	}
	c.FaultInjector.Partition(name, on)
	return nil
}
