package deploy

import (
	"fmt"
	"reflect"
	"slices"

	"github.com/smartfactory/sysml2conf/internal/codegen"
	"github.com/smartfactory/sysml2conf/internal/k8s"
)

// transition is a plan: the running pods to stop, last in the order first,
// and the records of the Deployments to start, first in the order first.
type transition struct {
	stop, start []*podRecord
}

// plan is the transition from the running pods to the desired objects. It
// reads the pod records and the objects and nothing of the cluster; callers
// hold c.mu while it reads the records. A running pod restarts when
//
//   - its Deployment or its own ConfigMap differs from the desired one;
//   - it Failed (a start that a partial transition left behind);
//   - something it depends on restarts (podRecord.deps): every broker
//     connection when a broker shard restarts, and the client modules with
//     a machine on an OPC UA server that restarts. A client with no machine
//     there depends on nothing that moves, keeps running and keeps
//     delivering through the transition.
//
// A running pod that is not desired stops; a desired Deployment without a
// pod starts. Equality needs no YAML parse and no JSON decode: the objects
// come decoded with the bundles, and reflect.DeepEqual returns at once for
// the ones the unit cache shares between them.
func plan(running map[string]*podRecord, desired []k8s.Object) (transition, error) {
	configMaps := map[string]k8s.Object{}
	want := map[string]k8s.Object{}
	for _, o := range desired {
		switch o.Kind() {
		case "ConfigMap":
			configMaps[o.Namespace()+"/"+o.Name()] = o
		case "Deployment":
			want[o.Name()] = o
		case "Namespace", "Service":
			// Namespaces are implicit; Services resolve through the pod records.
		default:
			return transition{}, fmt.Errorf("deploy: unsupported kind %q (%s)", o.Kind(), o.Name())
		}
	}

	// Up the order, so a pod's dependencies are decided before it.
	pods := make([]*podRecord, 0, len(running))
	for _, p := range running {
		pods = append(pods, p)
	}
	slices.SortFunc(pods, byOrder)
	var t transition
	restarts := map[string]bool{}
	for _, p := range pods {
		d, ok := want[p.name()]
		cm, hasCM := p.configMap()
		wantCM, wantsCM := configMaps[configMapKey(p.deploy)]
		restart := !ok || p.status.Phase == PodFailed || !reflect.DeepEqual(d, p.deploy) ||
			hasCM != wantsCM || !reflect.DeepEqual(cm, wantCM)
		for dep := range p.deps {
			restart = restart || restarts[dep]
		}
		if !restart {
			delete(want, p.name())
			continue
		}
		restarts[p.name()] = true
		t.stop = append(t.stop, p)
	}
	slices.Reverse(t.stop)
	for _, o := range want {
		t.start = append(t.start, newRecord(o, configMaps))
	}
	slices.SortFunc(t.start, byOrder)
	return t, nil
}

// run carries out a transition: every stop, then every start. With keep a
// stopped pod's record stays (Shutdown); otherwise it goes (Remove).
func (c *Cluster) run(t transition, keep bool) (*ReconfigureReport, error) {
	report := &ReconfigureReport{}
	for _, p := range t.stop {
		if err := c.stop(p.name(), keep); err != nil {
			return report, err
		}
		report.Stopped = append(report.Stopped, p.name())
	}
	for _, p := range t.start {
		if err := c.start(p); err != nil {
			return report, err
		}
		report.Started = append(report.Started, p.name())
	}
	return report, nil
}

// Remove stops the component behind a Deployment and frees its pod slot.
func (c *Cluster) Remove(deploymentName string) error {
	return c.stop(deploymentName, false)
}

// stop is the one-pod stop of every transition. The pod's supervisor (if
// any) halts first, so the stop is not undone by a liveness-probe restart.
// With keep the record stays, marked Succeeded as Shutdown leaves it;
// otherwise the record goes with its node slot, and a volatile historian's
// store with it: only supervised restarts keep data across component
// generations.
func (c *Cluster) stop(deploymentName string, keep bool) error {
	podName := deploymentName + "-0"
	c.mu.Lock()
	p, ok := c.pods[podName]
	if ok && !keep {
		delete(c.pods, podName)
		for _, n := range c.nodes {
			if n.Name == p.status.Node && n.pods > 0 {
				n.pods--
			}
		}
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("deploy: pod %s not found", podName)
	}
	c.haltSupervisors(p)
	c.stopPod(p)
	if keep {
		c.mu.Lock()
		if p.status.Phase == PodRunning || p.status.Phase == PodPending {
			p.status.Phase = PodSucceeded
		}
		p.status.Ready = false
		p.status.ReadyReason = "cluster shut down"
		c.mu.Unlock()
	}
	return nil
}

// ReconfigureReport records what a Reconfigure run did.
type ReconfigureReport struct {
	Diff      codegen.Diff
	Stopped   []string // deployment names stopped
	Started   []string // deployment names (re)started
	Untouched int      // deployments left running
}

// Reconfigure moves the running cluster to the configuration in new: it
// plans from what runs to new's objects and restarts only what changed and
// what depends on it (plan). old feeds only the report's Diff. A retried
// Reconfigure after a partial failure plans again from what runs, so it
// resumes where the last attempt stopped. The objects come decoded with the
// bundles (codegen.Bundle.Objects); no YAML is parsed here.
//
// This is the operational counterpart of codegen.DiffBundles: when the
// SysML model evolves, the plant is reconciled incrementally instead of
// being redeployed from scratch.
func (c *Cluster) Reconfigure(old, new *codegen.Bundle) (*ReconfigureReport, error) {
	c.mu.Lock()
	t, err := plan(c.pods, bundleObjects(new))
	c.mu.Unlock()
	report := &ReconfigureReport{}
	if err == nil {
		report, err = c.run(t, false)
	}
	report.Diff = codegen.DiffBundles(old, new)
	c.mu.Lock()
	report.Untouched = len(c.pods) - len(report.Started)
	c.mu.Unlock()
	return report, err
}
