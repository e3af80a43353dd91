package k8s

import (
	"strings"
	"testing"
)

// The manifests below are in the shape the generator's templates render.

func TestEncodeDecodeDeployment(t *testing.T) {
	data := []byte(`apiVersion: apps/v1
kind: Deployment
metadata:
  name: opcua-server-wc02
  namespace: icelab
  labels:
    app: opcua-server-wc02
spec:
  replicas: 1
  selector:
    matchLabels:
      app: opcua-server-wc02
  template:
    metadata:
      labels:
        app: opcua-server-wc02
    spec:
      containers:
      - name: server
        image: "factory/opcua-server:1.0"
        env:
        - name: OPCUA_PORT
          value: "4840"
        ports:
        - name: opcua
          containerPort: 4840
          protocol: TCP
        volumeMounts:
        - name: config
          mountPath: /etc/factory
          readOnly: true
        readinessProbe:
          tcpSocket:
            port: 4840
          periodSeconds: 5
      volumes:
      - name: config
        configMap:
          name: cfg
`)
	objs, err := Decode(data)
	if err != nil {
		t.Fatalf("decode:\n%s\nerr: %v", data, err)
	}
	if len(objs) != 1 {
		t.Fatalf("objs = %d", len(objs))
	}
	o := objs[0]
	if o.Kind() != "Deployment" || o.APIVersion() != "apps/v1" {
		t.Errorf("kind/apiVersion = %s/%s", o.Kind(), o.APIVersion())
	}
	if o.Name() != "opcua-server-wc02" || o.Namespace() != "icelab" {
		t.Errorf("name/ns = %s/%s", o.Name(), o.Namespace())
	}
	if o.Labels()["app"] != "opcua-server-wc02" {
		t.Errorf("labels = %v", o.Labels())
	}
	containers, _ := o.Path("spec.template.spec.containers").([]any)
	if len(containers) != 1 {
		t.Fatalf("containers = %v", containers)
	}
	c := containers[0].(map[string]any)
	if c["image"] != "factory/opcua-server:1.0" {
		t.Errorf("image = %v", c["image"])
	}
	if got, _ := o.Path("spec.replicas").(int64); got != 1 {
		t.Errorf("replicas = %v", o.Path("spec.replicas"))
	}
}

func TestEncodeMultiDoc(t *testing.T) {
	data := []byte(`apiVersion: v1
kind: Namespace
metadata:
  name: icelab
  labels:
    team: factory
---
apiVersion: v1
kind: Service
metadata:
  name: broker
  namespace: icelab
  labels:
    app: broker
spec:
  selector:
    app: broker
  ports:
  - name: main
    port: 1883
    targetPort: 1883
    protocol: TCP
---
apiVersion: v1
kind: ConfigMap
metadata:
  name: broker-config
  namespace: icelab
data:
  conf: "{\"a\":1}"
`)
	if !strings.Contains(string(data), "---") {
		t.Error("multi-doc separator missing")
	}
	objs, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 3 {
		t.Fatalf("objs = %d", len(objs))
	}
	if objs[2].ConfigData()["conf"] != `{"a":1}` {
		t.Errorf("config data = %v", objs[2].ConfigData())
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	cases := []struct {
		name string
		objs []Object
		want string
	}{
		{
			name: "missing kind",
			objs: []Object{{Raw: map[string]any{"metadata": map[string]any{"name": "x"}}}},
			want: "missing kind",
		},
		{
			name: "missing name",
			objs: []Object{{Raw: map[string]any{"kind": "Service", "metadata": map[string]any{}, "spec": map[string]any{"ports": []any{map[string]any{"port": int64(1)}}}}}},
			want: "missing metadata.name",
		},
		{
			name: "deployment without containers",
			objs: []Object{{Raw: map[string]any{"kind": "Deployment", "metadata": map[string]any{"name": "d"}}}},
			want: "no containers",
		},
		{
			name: "service without ports",
			objs: []Object{{Raw: map[string]any{"kind": "Service", "metadata": map[string]any{"name": "s"}}}},
			want: "no ports",
		},
	}
	for _, c := range cases {
		err := Validate(c.objs)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

func TestValidateAcceptsGoodObjects(t *testing.T) {
	data := []byte(`apiVersion: v1
kind: Namespace
metadata:
  name: ns
---
apiVersion: apps/v1
kind: Deployment
metadata:
  name: ok
  namespace: ns
  labels:
    app: ok
spec:
  replicas: 1
  selector:
    matchLabels:
      app: ok
  template:
    metadata:
      labels:
        app: ok
    spec:
      containers:
      - name: c
        image: img
---
apiVersion: v1
kind: Service
metadata:
  name: ok
  namespace: ns
  labels:
    app: ok
spec:
  selector:
    app: ok
  ports:
  - name: main
    port: 80
    targetPort: 80
    protocol: TCP
`)
	objs, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(objs); err != nil {
		t.Errorf("Validate = %v", err)
	}
}

func TestObjectPathMissing(t *testing.T) {
	o := Object{Raw: map[string]any{"a": map[string]any{"b": int64(1)}}}
	if o.Path("a.b") != int64(1) {
		t.Error("Path a.b")
	}
	if o.Path("a.b.c") != nil || o.Path("x.y") != nil {
		t.Error("missing paths should be nil")
	}
}

func TestDecodeRejectsNonMapping(t *testing.T) {
	if _, err := Decode([]byte("- a\n- b\n")); err == nil {
		t.Error("want error for sequence document")
	}
}

func TestPodPolicyRoundTrip(t *testing.T) {
	data := []byte(`apiVersion: apps/v1
kind: Deployment
metadata:
  name: pod
  namespace: ns
spec:
  replicas: 1
  template:
    spec:
      containers:
      - name: c
        image: img
        livenessProbe:
          tcpSocket:
            port: 1883
          periodSeconds: 5
          failureThreshold: 3
        readinessProbe:
          exec:
            command:
            - /bin/healthcheck
            - --mode=ready
          initialDelaySeconds: 1
          periodSeconds: 5
      restartPolicy: Always
`)
	objs, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	pol := objs[0].PodPolicy()
	if pol.RestartPolicy != "Always" {
		t.Errorf("RestartPolicy = %q", pol.RestartPolicy)
	}
	if pol.Liveness == nil || pol.Liveness.TCPPort != 1883 ||
		pol.Liveness.PeriodSeconds != 5 || pol.Liveness.FailureThreshold != 3 {
		t.Errorf("Liveness = %+v", pol.Liveness)
	}
	if pol.Readiness == nil || len(pol.Readiness.Command) != 2 ||
		pol.Readiness.Command[1] != "--mode=ready" || pol.Readiness.InitialDelaySeconds != 1 {
		t.Errorf("Readiness = %+v", pol.Readiness)
	}
}

func TestPodPolicyAbsent(t *testing.T) {
	data := []byte(`apiVersion: apps/v1
kind: Deployment
metadata:
  name: bare
  namespace: ns
spec:
  replicas: 1
  template:
    spec:
      containers:
      - name: c
        image: img
`)
	objs, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	pol := objs[0].PodPolicy()
	if pol.RestartPolicy != "" || pol.Liveness != nil || pol.Readiness != nil {
		t.Errorf("want zero policy, got %+v", pol)
	}
}
