package deploy

import (
	"fmt"
	"sort"

	"github.com/smartfactory/sysml2conf/internal/codegen"
	"github.com/smartfactory/sysml2conf/internal/k8s"
)

// Remove stops the component behind a Deployment and frees its pod slot.
// The pod's supervisor (if any) stops first so the removal is not undone by
// a liveness-probe restart.
func (c *Cluster) Remove(deploymentName string) error {
	podName := deploymentName + "-0"
	c.mu.Lock()
	p, ok := c.pods[podName]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("deploy: pod %s not found", podName)
	}
	delete(c.pods, podName)
	for _, n := range c.nodes {
		if n.Name == p.status.Node && n.pods > 0 {
			n.pods--
		}
	}
	c.mu.Unlock()

	// The record goes, and a volatile historian's store with it: only
	// supervised restarts keep data across component generations.
	c.haltSupervisors(p)
	c.stopPod(p)
	return nil
}

// ReconfigureReport records what a Reconfigure run did.
type ReconfigureReport struct {
	Diff      codegen.Diff
	Stopped   []string // deployment names stopped
	Started   []string // deployment names (re)started
	Untouched int      // deployments left running
}

// Reconfigure transitions a running cluster from the configuration in old
// to the configuration in new, restarting only what the manifest diff and
// its runtime dependencies require. A deployment stops when
//
//   - its manifest changed or was removed;
//   - it holds a connection to the broker (clients, historians, monitors)
//     and the broker restarts;
//   - it is a client module with a machine on an OPC UA server that restarts
//     (old.Intermediate.Clients[].Machines[].Server): its sessions and
//     monitored items are on that server's old endpoint. A client with no
//     machine there depends on nothing that moves, keeps running and keeps
//     delivering through the transition.
//
// Added and changed manifests, and whatever a cascade stopped, then start in
// dependency order. The objects come decoded with the bundles
// (codegen.Bundle.Objects); no YAML is parsed here.
//
// This is the operational counterpart of codegen.DiffBundles: when the
// SysML model evolves, the plant is reconciled incrementally instead of
// being redeployed from scratch.
func (c *Cluster) Reconfigure(old, new *codegen.Bundle) (*ReconfigureReport, error) {
	diff := codegen.DiffBundles(old, new)
	report := &ReconfigureReport{Diff: diff}
	if diff.Empty() {
		c.mu.Lock()
		report.Untouched = len(c.pods)
		c.mu.Unlock()
		return report, nil
	}

	plan := planReconfigure(old, new, diff)
	for _, o := range plan.stop {
		// A retried reconfigure (after a partial failure) finds some pods
		// already stopped; skipping them makes the transition resumable.
		if _, ok := c.PodStatus(o.Name() + "-0"); !ok {
			continue
		}
		if err := c.Remove(o.Name()); err != nil {
			return report, err
		}
		report.Stopped = append(report.Stopped, o.Name())
	}
	for _, o := range plan.start {
		// Already running (started by a previous partially-failed attempt,
		// or an unchanged manifest swept in by the cascade set): leave it.
		// A Failed pod from that earlier attempt is cleared and retried.
		if p, ok := c.PodStatus(o.Name() + "-0"); ok {
			if p.Phase != PodFailed {
				continue
			}
			_ = c.Remove(o.Name())
		}
		if err := c.startDeployment(o, plan.configMaps); err != nil {
			return report, err
		}
		report.Started = append(report.Started, o.Name())
	}
	c.mu.Lock()
	report.Untouched = len(c.pods) - len(report.Started)
	c.mu.Unlock()
	return report, nil
}

// reconfigurePlan is the transition between two bundles as lists of
// Deployments: stop in reverse dependency order, start in dependency order,
// and the new bundle's ConfigMaps for the starts to read.
type reconfigurePlan struct {
	stop, start []k8s.Object
	configMaps  map[string]k8s.Object
}

// planReconfigure applies Reconfigure's rules to a diff. It looks at the
// bundles only, not at the cluster.
func planReconfigure(old, new *codegen.Bundle, diff codegen.Diff) reconfigurePlan {
	changedOrRemoved := map[string]bool{}
	addedOrChanged := map[string]bool{}
	for _, f := range diff.Changed {
		changedOrRemoved[f] = true
		addedOrChanged[f] = true
	}
	for _, f := range diff.Removed {
		changedOrRemoved[f] = true
	}
	for _, f := range diff.Added {
		addedOrChanged[f] = true
	}

	// Deployments to stop: those in changed/removed manifests...
	type deployment struct {
		file string
		obj  k8s.Object
	}
	var running []deployment
	for file := range old.Manifests {
		for _, o := range old.Objects(file) {
			if o.Kind() == "Deployment" {
				running = append(running, deployment{file, o})
			}
		}
	}
	stop := map[string]k8s.Object{}
	brokerRestarts := false
	restartedServers := map[string]bool{}
	for _, d := range running {
		if !changedOrRemoved[d.file] {
			continue
		}
		stop[d.obj.Name()] = d.obj
		switch componentOf(d.obj) {
		case "message-broker":
			brokerRestarts = true
		case "opcua-server":
			restartedServers[d.obj.Name()] = true
		}
	}
	// ...plus what depends on them: every broker connection, and the client
	// modules bridging a machine of a restarted server.
	dependentClients := map[string]bool{}
	for _, cc := range old.Intermediate.Clients {
		for _, m := range cc.Machines {
			if restartedServers[m.Server] {
				dependentClients[cc.Name] = true
			}
		}
	}
	for _, d := range running {
		if brokerRestarts && kinds[componentOf(d.obj)].onBroker || dependentClients[d.obj.Name()] {
			stop[d.obj.Name()] = d.obj
		}
	}

	plan := reconfigurePlan{configMaps: map[string]k8s.Object{}}
	for _, o := range stop {
		plan.stop = append(plan.stop, o)
	}
	sortByRank(plan.stop, true)

	// Start: deployments from added/changed manifests plus everything the
	// cascade stopped whose manifest still exists in new.
	for file := range new.Manifests {
		for _, o := range new.Objects(file) {
			switch o.Kind() {
			case "ConfigMap":
				plan.configMaps[o.Namespace()+"/"+o.Name()] = o
			case "Deployment":
				if _, restarted := stop[o.Name()]; addedOrChanged[file] || restarted {
					plan.start = append(plan.start, o)
				}
			}
		}
	}
	sortByRank(plan.start, false)
	return plan
}

// sortByRank puts Deployments in dependency order (broker, servers, clients,
// historians, monitors; by name within a tier), or in its reverse.
func sortByRank(objs []k8s.Object, reverse bool) {
	sort.Slice(objs, func(i, j int) bool {
		ri, rj := componentRank(objs[i]), componentRank(objs[j])
		if ri != rj {
			return (ri < rj) != reverse
		}
		return objs[i].Name() < objs[j].Name()
	})
}
