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

// podRuntime is the supervision state of one pod: everything needed to
// probe it and to rebuild its component on restart.
type podRuntime struct {
	podName    string
	deployName string
	component  string
	deploy     k8s.Object
	policy     k8s.PodPolicy
	configMaps map[string]k8s.Object

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

// startSupervisor registers a runtime for the pod and begins probing it.
func (c *Cluster) startSupervisor(pod *Pod, o k8s.Object, pol k8s.PodPolicy, configMaps map[string]k8s.Object) {
	rt := &podRuntime{
		podName:    pod.Name,
		deployName: o.Name(),
		component:  pod.Component,
		deploy:     o,
		policy:     pol,
		configMaps: configMaps,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	c.mu.Lock()
	if old := c.runtimes[pod.Name]; old != nil {
		old.halt()
	}
	c.runtimes[pod.Name] = rt
	c.mu.Unlock()
	go c.supervise(rt, pod)
}

// stopSupervisor halts a pod's probe loop and waits for it to exit.
func (c *Cluster) stopSupervisor(podName string) {
	c.mu.Lock()
	rt := c.runtimes[podName]
	delete(c.runtimes, podName)
	c.mu.Unlock()
	if rt != nil {
		rt.halt()
		<-rt.done
	}
}

// supervise is the per-pod probe loop: liveness failures beyond the
// threshold restart the component with exponential backoff (repeated
// restart failures surface as CrashLoopBackOff); readiness failures only
// flip the pod's Ready condition.
func (c *Cluster) supervise(rt *podRuntime, pod *Pod) {
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
			err := c.componentHealth(rt.component, rt.deployName)
			if err == nil {
				failures = 0
				continue
			}
			failures++
			if failures < live.threshold {
				continue
			}
			failures = 0
			c.recordEvent(rt.podName, EventUnhealthy, err.Error())
			if !c.restartPod(rt, pod) {
				return // halted mid-restart
			}
			epoch = time.Now()

		case <-readyCh:
			if time.Since(epoch) < ready.delay {
				continue
			}
			c.setReady(pod, c.componentReady(rt.component, rt.deployName))
		}
	}
}

// restartPod bounces the component behind a pod: stop, wait backoff, start.
// Start failures retry with growing (capped) backoff; after
// crashLoopThreshold consecutive failures the pod is marked
// CrashLoopBackOff and keeps retrying at the capped pace until it heals or
// the supervisor halts. Returns false when halted.
func (c *Cluster) restartPod(rt *podRuntime, pod *Pod) bool {
	const crashLoopThreshold = 5
	unit := c.probeUnit()
	backoff := resilience.Backoff{Initial: 2 * unit, Factor: 2, Max: 64 * unit}

	c.mu.Lock()
	pod.Phase = PodPending
	pod.Ready = false
	pod.ReadyReason = "restarting"
	c.mu.Unlock()
	c.stopComponent(rt.component, rt.deployName)

	for attempt := 0; ; attempt++ {
		timer := time.NewTimer(backoff.Delay(attempt))
		select {
		case <-rt.stop:
			timer.Stop()
			return false
		case <-timer.C:
		}
		err := c.startComponent(rt.component, rt.deploy, rt.configMaps)
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
			c.recordEvent(rt.podName, EventRestarted,
				fmt.Sprintf("%s restarted (restart #%d)", rt.component, restarts))
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
			c.recordEvent(rt.podName, EventCrashLoop, err.Error())
		}
	}
}

// componentHealth is the liveness check behind a pod: the component must
// exist and report healthy. A missing component (killed or mid-crash) is a
// liveness failure, which is exactly what triggers the restart path.
func (c *Cluster) componentHealth(component, name string) error {
	switch component {
	case "message-broker":
		c.mu.Lock()
		n := c.brokers[name]
		c.mu.Unlock()
		if n == nil {
			return fmt.Errorf("deploy: broker %s not running", name)
		}
		return n.Broker.Health()
	case "opcua-server":
		c.mu.Lock()
		s := c.servers[name]
		c.mu.Unlock()
		if s == nil {
			return fmt.Errorf("deploy: server %s not running", name)
		}
		return s.Health()
	case "opcua-client":
		c.mu.Lock()
		cl := c.clients[name]
		c.mu.Unlock()
		if cl == nil {
			return fmt.Errorf("deploy: client %s not running", name)
		}
		return cl.Health()
	case "historian":
		c.mu.Lock()
		h := c.historians[name]
		c.mu.Unlock()
		if h == nil {
			return fmt.Errorf("deploy: historian %s not running", name)
		}
		return h.Health()
	case "monitor":
		c.mu.Lock()
		m := c.monitors[name]
		c.mu.Unlock()
		if m == nil {
			return fmt.Errorf("deploy: monitor %s not running", name)
		}
		return m.Health()
	}
	return fmt.Errorf("deploy: unknown component %q", component)
}

// componentReady is the readiness check: servers and clients distinguish
// "alive" from "all upstream connections established"; the rest equate
// readiness with liveness.
func (c *Cluster) componentReady(component, name string) error {
	switch component {
	case "opcua-server":
		c.mu.Lock()
		s := c.servers[name]
		c.mu.Unlock()
		if s == nil {
			return fmt.Errorf("deploy: server %s not running", name)
		}
		return s.Ready()
	case "opcua-client":
		c.mu.Lock()
		cl := c.clients[name]
		c.mu.Unlock()
		if cl == nil {
			return fmt.Errorf("deploy: client %s not running", name)
		}
		return cl.Ready()
	}
	return c.componentHealth(component, name)
}

// setReady updates a pod's Ready condition, emitting an event on
// transitions.
func (c *Cluster) setReady(pod *Pod, err error) {
	c.mu.Lock()
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
		return *p, true
	}
	if p, ok := c.pods[name+"-0"]; ok {
		return *p, true
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
		if p.Phase != PodRunning || !p.Ready {
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
	pod, ok := c.pods[podName]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("deploy: pod %s not found", podName)
	}
	component := pod.Component
	c.mu.Unlock()
	c.recordEvent(podName, EventKilled, component+" killed")
	c.stopComponent(component, deploymentName)
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
