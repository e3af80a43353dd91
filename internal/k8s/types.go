// Package k8s reads back the multi-document YAML manifests the
// configuration generator renders from its templates (Namespace, ConfigMap,
// Service, Deployment): Decode parses them into generic Objects with typed
// accessors, Validate checks what the deployment simulator relies on, and
// PodPolicy extracts a Deployment's restart policy and probes.
package k8s

import (
	"fmt"
	"sort"
	"strings"

	"github.com/smartfactory/sysml2conf/internal/yamlenc"
)

// Object is a decoded manifest document with typed accessors over the
// generic map representation.
type Object struct {
	Raw map[string]any
}

// Kind returns the object's kind ("Deployment", ...).
func (o Object) Kind() string { s, _ := o.Raw["kind"].(string); return s }

// APIVersion returns the object's apiVersion.
func (o Object) APIVersion() string { s, _ := o.Raw["apiVersion"].(string); return s }

// Name returns metadata.name.
func (o Object) Name() string { return o.metaString("name") }

// Namespace returns metadata.namespace.
func (o Object) Namespace() string { return o.metaString("namespace") }

func (o Object) metaString(key string) string {
	meta, _ := o.Raw["metadata"].(map[string]any)
	if meta == nil {
		return ""
	}
	s, _ := meta[key].(string)
	return s
}

// Labels returns metadata.labels as a string map.
func (o Object) Labels() map[string]string {
	meta, _ := o.Raw["metadata"].(map[string]any)
	out := map[string]string{}
	if meta == nil {
		return out
	}
	labels, _ := meta["labels"].(map[string]any)
	for k, v := range labels {
		if s, ok := v.(string); ok {
			out[k] = s
		}
	}
	return out
}

// Path fetches a nested value by dotted path ("spec.template.spec"), or nil.
func (o Object) Path(path string) any {
	var cur any = o.Raw
	for _, part := range strings.Split(path, ".") {
		m, ok := cur.(map[string]any)
		if !ok {
			return nil
		}
		cur = m[part]
	}
	return cur
}

// ProbeSpec is a probe parsed from a decoded Deployment manifest. Exactly
// one of TCPPort/Command is set depending on the probe flavor.
type ProbeSpec struct {
	TCPPort             int      // tcpSocket probe port (0 when exec flavor)
	Command             []string // exec probe command (nil when tcpSocket flavor)
	InitialDelaySeconds int
	PeriodSeconds       int
	FailureThreshold    int
}

// PodPolicy is the supervision-relevant slice of a Deployment's pod spec:
// the restart policy plus the first container's probes. Zero-valued fields
// mean the manifest did not specify them.
type PodPolicy struct {
	RestartPolicy string
	Liveness      *ProbeSpec
	Readiness     *ProbeSpec
}

// PodPolicy extracts restartPolicy and probes from a Deployment object.
// Non-Deployment objects yield the zero policy.
func (o Object) PodPolicy() PodPolicy {
	var pol PodPolicy
	if s, ok := o.Path("spec.template.spec.restartPolicy").(string); ok {
		pol.RestartPolicy = s
	}
	containers, _ := o.Path("spec.template.spec.containers").([]any)
	if len(containers) == 0 {
		return pol
	}
	c, _ := containers[0].(map[string]any)
	if c == nil {
		return pol
	}
	pol.Liveness = parseProbe(c["livenessProbe"])
	pol.Readiness = parseProbe(c["readinessProbe"])
	return pol
}

func parseProbe(v any) *ProbeSpec {
	m, ok := v.(map[string]any)
	if !ok {
		return nil
	}
	p := &ProbeSpec{
		InitialDelaySeconds: asInt(m["initialDelaySeconds"]),
		PeriodSeconds:       asInt(m["periodSeconds"]),
		FailureThreshold:    asInt(m["failureThreshold"]),
	}
	if ts, ok := m["tcpSocket"].(map[string]any); ok {
		p.TCPPort = asInt(ts["port"])
	}
	if ex, ok := m["exec"].(map[string]any); ok {
		cmd, _ := ex["command"].([]any)
		for _, c := range cmd {
			if s, ok := c.(string); ok {
				p.Command = append(p.Command, s)
			}
		}
	}
	return p
}

// asInt coerces the decoder's scalar representations to int.
func asInt(v any) int {
	switch x := v.(type) {
	case int:
		return x
	case int64:
		return int(x)
	case float64:
		return int(x)
	}
	return 0
}

// ConfigData returns data for ConfigMap objects.
func (o Object) ConfigData() map[string]string {
	data, _ := o.Raw["data"].(map[string]any)
	out := map[string]string{}
	for k, v := range data {
		if s, ok := v.(string); ok {
			out[k] = s
		}
	}
	return out
}

// Decode parses a multi-document manifest into Objects.
func Decode(data []byte) ([]Object, error) {
	docs, err := yamlenc.UnmarshalDocs(data)
	if err != nil {
		return nil, err
	}
	var objs []Object
	for i, d := range docs {
		m, ok := d.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("k8s: document %d is not a mapping", i)
		}
		objs = append(objs, Object{Raw: m})
	}
	return objs, nil
}

// Validate checks the minimal well-formedness the deployment simulator
// relies on: every object has kind and metadata.name; Deployments have at
// least one container with name and image; Services have ports.
func Validate(objs []Object) error {
	var problems []string
	addf := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	for i, o := range objs {
		if o.Kind() == "" {
			addf("document %d: missing kind", i)
			continue
		}
		if o.Name() == "" {
			addf("document %d (%s): missing metadata.name", i, o.Kind())
		}
		switch o.Kind() {
		case "Deployment":
			containers, _ := o.Path("spec.template.spec.containers").([]any)
			if len(containers) == 0 {
				addf("Deployment %s: no containers", o.Name())
			}
			for _, c := range containers {
				cm, _ := c.(map[string]any)
				if cm == nil {
					continue
				}
				if cm["name"] == nil || cm["image"] == nil {
					addf("Deployment %s: container missing name or image", o.Name())
				}
			}
		case "Service":
			ports, _ := o.Path("spec.ports").([]any)
			if len(ports) == 0 {
				addf("Service %s: no ports", o.Name())
			}
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("k8s: invalid manifest:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}
