package codegen

import (
	"fmt"
	"strconv"

	"github.com/smartfactory/sysml2conf/internal/k8s"
	"github.com/smartfactory/sysml2conf/internal/yamlenc"
)

// Step 2 builds each component's Kubernetes objects (Namespace, ConfigMap,
// Deployment, Service) straight from its step-1 configs and renders them
// with yamlenc. The objects hold exactly what k8s.Decode yields for their
// YAML — map[string]any, []any, strings, bools and int64 — so the built
// objects are the manifest's reading (Bundle.Objects) without a decode.

// Images selects the container images referenced by the manifests.
type Images struct {
	Broker    string
	Server    string
	Client    string
	Historian string
	Monitor   string
}

// DefaultImages are the image names used when none are configured.
var DefaultImages = Images{
	Broker:    "factory/message-broker:1.0",
	Server:    "factory/opcua-server:1.0",
	Client:    "factory/opcua-client:1.0",
	Historian: "factory/historian:1.0",
	Monitor:   "factory/workcell-monitor:1.0",
}

type obj = map[string]any

// manifestFile validates a manifest's objects and renders them as one
// multi-document YAML stream; the objects stay with the file (Objects).
func manifestFile(name string, raws ...obj) (NamedFile, error) {
	objs := make([]k8s.Object, len(raws))
	docs := make([]any, len(raws))
	for i, r := range raws {
		objs[i], docs[i] = k8s.Object{Raw: r}, r
	}
	if err := k8s.Validate(objs); err != nil {
		return NamedFile{}, fmt.Errorf("codegen: generated %s invalid: %w", name, err)
	}
	data, err := yamlenc.MarshalDocs(docs...)
	if err != nil {
		return NamedFile{}, fmt.Errorf("codegen: render %s: %w", name, err)
	}
	return NamedFile{Name: "manifests/" + name, Data: data, Objects: objs}, nil
}

func namespaceObject(namespace, factory string) obj {
	return obj{
		"apiVersion": "v1",
		"kind":       "Namespace",
		"metadata": obj{
			"name": namespace,
			"labels": obj{
				"app.kubernetes.io/part-of": factory,
				"factory.io/generated-by":   "sysml2conf",
			},
		},
	}
}

// configMap is app's "<app>-config" ConfigMap; data maps file names to
// JSON and labels, which may be nil, are added to its app label.
func configMap(app, namespace string, labels, data obj) obj {
	if labels == nil {
		labels = obj{}
	}
	labels["app"] = app
	return obj{
		"apiVersion": "v1",
		"kind":       "ConfigMap",
		"metadata":   obj{"name": app + "-config", "namespace": namespace, "labels": labels},
		"data":       data,
	}
}

// workload describes the one-container Deployment of a component.
type workload struct {
	app, component string
	labels         obj // added to the Deployment's app and component labels
	container      obj
	configVolume   bool // the "<app>-config" ConfigMap is volume "config"
}

// deployment builds w's Deployment: one replica, selected by its app label,
// restarted always.
func deployment(namespace string, w workload) obj {
	labels := obj{"app": w.app, "factory.io/component": w.component}
	for k, v := range w.labels {
		labels[k] = v
	}
	pod := obj{
		"containers":    []any{w.container},
		"restartPolicy": "Always",
	}
	if w.configVolume {
		pod["volumes"] = []any{obj{"name": "config", "configMap": obj{"name": w.app + "-config"}}}
	}
	return obj{
		"apiVersion": "apps/v1",
		"kind":       "Deployment",
		"metadata":   obj{"name": w.app, "namespace": namespace, "labels": labels},
		"spec": obj{
			"replicas": int64(1),
			"selector": obj{"matchLabels": obj{"app": w.app}},
			"template": obj{
				"metadata": obj{"labels": obj{"app": w.app, "factory.io/component": w.component}},
				"spec":     pod,
			},
		},
	}
}

// service exposes app's TCP port under portName.
func service(app, namespace, portName string, port int) obj {
	return obj{
		"apiVersion": "v1",
		"kind":       "Service",
		"metadata":   obj{"name": app, "namespace": namespace},
		"spec": obj{
			"selector": obj{"app": app},
			"ports": []any{obj{
				"name": portName, "port": int64(port), "targetPort": int64(port), "protocol": "TCP",
			}},
		},
	}
}

// container builds a component container that reads configFile, when set,
// from the mounted ConfigMap; env alternates variable names and values.
func container(name, image, configFile string, env ...string) obj {
	c := obj{"name": name, "image": image}
	if configFile != "" {
		c["args"] = []any{"--config=/etc/factory/" + configFile}
		c["volumeMounts"] = []any{obj{"name": "config", "mountPath": "/etc/factory", "readOnly": true}}
	}
	if len(env) > 0 {
		vars := make([]any, 0, len(env)/2)
		for i := 0; i+1 < len(env); i += 2 {
			vars = append(vars, obj{"name": env[i], "value": env[i+1]})
		}
		c["env"] = vars
	}
	return c
}

// withPort adds a named container port.
func withPort(c obj, portName string, port int) obj {
	c["ports"] = []any{obj{"containerPort": int64(port), "name": portName}}
	return c
}

// withProbes sets the container's probes; a nil readiness check means none.
// Every probe runs each 5 s, liveness restarts after 3 failures, and an exec
// readiness check waits 1 s before its first run.
func withProbes(c, live, ready obj) obj {
	live["periodSeconds"], live["failureThreshold"] = int64(5), int64(3)
	c["livenessProbe"] = live
	if ready != nil {
		if ready["exec"] != nil {
			ready["initialDelaySeconds"] = int64(1)
		}
		ready["periodSeconds"] = int64(5)
		c["readinessProbe"] = ready
	}
	return c
}

func tcpCheck(port int) obj { return obj{"tcpSocket": obj{"port": int64(port)}} }

func healthCheck(mode string) obj {
	return obj{"exec": obj{"command": []any{"/bin/healthcheck", "--mode=" + mode}}}
}

// brokerObjects is the singleton broker of a one-broker plant: no config
// file, TCP probes on the MQTT port.
func brokerObjects(namespace string, images Images, port int) []obj {
	c := withProbes(withPort(container("broker", images.Broker, ""), "mqtt", port), tcpCheck(port), tcpCheck(port))
	return []obj{
		deployment(namespace, workload{app: "message-broker", component: "message-broker", container: c}),
		service("message-broker", namespace, "mqtt", port),
	}
}

// brokerShardObjects is one broker node of a federated plant: unlike the
// singleton it reads broker.json (its shard index and the workcell
// placement universe) and has a Service of its own, so components address
// their owner shard directly.
func brokerShardObjects(namespace string, images Images, port int, name, cfg string) []obj {
	c := withProbes(withPort(container("broker", images.Broker, "broker.json"), "mqtt", port), tcpCheck(port), tcpCheck(port))
	return []obj{
		configMap(name, namespace, nil, obj{"broker.json": cfg}),
		deployment(namespace, workload{app: name, component: "message-broker", container: c}),
		service(name, namespace, "mqtt", port),
	}
}

// serverObjects is a workcell's OPC UA server; data holds server.json and
// one machine-<machine>.json per hosted machine.
func serverObjects(namespace string, images Images, srv ServerConfig, data obj) []obj {
	c := container("opcua-server", images.Server, "server.json",
		"OPCUA_PORT", strconv.Itoa(srv.Port), "WORKCELL", srv.Workcell)
	c = withProbes(withPort(c, "opcua", srv.Port), tcpCheck(srv.Port), healthCheck("ready"))
	return []obj{
		configMap(srv.Name, namespace, obj{"factory.io/workcell": srv.Workcell}, data),
		deployment(namespace, workload{app: srv.Name, component: "opcua-server",
			labels: obj{"factory.io/workcell": srv.Workcell}, container: c, configVolume: true}),
		service(srv.Name, namespace, "opcua", srv.Port),
	}
}

// The OPC UA client, historian and monitor each read one config file and
// dial their broker; only the client has a readiness check.

func clientObjects(namespace string, images Images, name, cfg, brokerAddr string) []obj {
	c := withProbes(container("opcua-client", images.Client, "client.json", "BROKER_ADDR", brokerAddr),
		healthCheck("live"), healthCheck("ready"))
	return []obj{
		configMap(name, namespace, nil, obj{"client.json": cfg}),
		deployment(namespace, workload{app: name, component: "opcua-client", container: c, configVolume: true}),
	}
}

func historianObjects(namespace string, images Images, name, cfg, brokerAddr string) []obj {
	c := withProbes(container("historian", images.Historian, "storage.json", "BROKER_ADDR", brokerAddr),
		healthCheck("live"), nil)
	return []obj{
		configMap(name, namespace, nil, obj{"storage.json": cfg}),
		deployment(namespace, workload{app: name, component: "historian", container: c, configVolume: true}),
	}
}

// monitorObjects labels the Deployment with the monitor's workcell ("" for
// a line-scope monitor).
func monitorObjects(namespace string, images Images, mo MonitorConfig, cfg, brokerAddr string) []obj {
	c := withProbes(container("monitor", images.Monitor, "monitor.json", "BROKER_ADDR", brokerAddr),
		healthCheck("live"), nil)
	return []obj{
		configMap(mo.Name, namespace, nil, obj{"monitor.json": cfg}),
		deployment(namespace, workload{app: mo.Name, component: "monitor",
			labels: obj{"factory.io/workcell": mo.Workcell}, container: c, configVolume: true}),
	}
}
