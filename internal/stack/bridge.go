package stack

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/smartfactory/sysml2conf/internal/broker"
	"github.com/smartfactory/sysml2conf/internal/codegen"
	"github.com/smartfactory/sysml2conf/internal/opcua"
	"github.com/smartfactory/sysml2conf/internal/resilience"
)

// ServerResolver maps an OPC UA server name (e.g. "opcua-server-workcell02")
// to its dialable address.
type ServerResolver func(server string) (string, error)

// BridgeClient is the OPC UA client module of the architecture: for the
// machines in its group it subscribes to every configured variable on the
// owning OPC UA server and republishes values to the message broker; it
// also listens on each service's request topic and proxies the call to the
// OPC UA method node, publishing the result on the response topic.
type BridgeClient struct {
	Config codegen.ClientConfig

	resolveServer ServerResolver
	brokerAddr    string

	// ReconnectBackoff paces redial attempts after a server connection is
	// lost (default 100ms).
	ReconnectBackoff time.Duration

	mu         sync.Mutex
	opcua      map[string]*opcua.Client // per server name
	broker     *broker.Client
	wg         sync.WaitGroup
	stopCh     chan struct{}
	published  uint64
	calls      uint64
	reconnects uint64
}

// ServicePayload is the JSON body exchanged on service request topics.
type ServicePayload struct {
	Args []any  `json:"args,omitempty"`
	ID   string `json:"id,omitempty"` // correlation id echoed in the reply
}

// ServiceReply is the JSON body published on service response topics.
type ServiceReply struct {
	OK      bool   `json:"ok"`
	Error   string `json:"error,omitempty"`
	Results []any  `json:"results,omitempty"`
	ID      string `json:"id,omitempty"`
}

// VariableSample is the JSON body published on variable topics.
type VariableSample struct {
	Machine  string `json:"machine"`
	Variable string `json:"variable"`
	Category string `json:"category,omitempty"`
	Type     string `json:"type,omitempty"`
	Value    any    `json:"value"`
}

// NewBridgeClient builds the component; Start brings it up.
func NewBridgeClient(cfg codegen.ClientConfig, resolver ServerResolver, brokerAddr string) *BridgeClient {
	return &BridgeClient{
		Config:        cfg,
		resolveServer: resolver,
		brokerAddr:    brokerAddr,
		opcua:         map[string]*opcua.Client{},
		stopCh:        make(chan struct{}),
	}
}

// Start connects to the broker and all owning OPC UA servers, then wires
// subscriptions and service listeners.
func (b *BridgeClient) Start() error {
	bc, err := broker.DialClient(b.brokerAddr)
	if err != nil {
		return fmt.Errorf("stack: client %s: %w", b.Config.Name, err)
	}
	b.mu.Lock()
	b.broker = bc
	b.mu.Unlock()

	for _, cm := range b.Config.Machines {
		client, err := b.clientFor(cm.Server)
		if err != nil {
			b.Stop()
			return err
		}
		for _, v := range cm.Subscriptions {
			if err := b.wireVariable(client, cm, v); err != nil {
				b.Stop()
				return err
			}
		}
		for _, m := range cm.Methods {
			if err := b.wireService(cm, m); err != nil {
				b.Stop()
				return err
			}
		}
	}
	return nil
}

func (b *BridgeClient) backoff() time.Duration {
	if b.ReconnectBackoff > 0 {
		return b.ReconnectBackoff
	}
	return 100 * time.Millisecond
}

// reconnectPolicy is the redial pacing: starts at ReconnectBackoff and
// grows gently so a long outage does not hammer the resolver.
func (b *BridgeClient) reconnectPolicy() resilience.Backoff {
	initial := b.backoff()
	return resilience.Backoff{Initial: initial, Factor: 1.5, Max: 16 * initial}
}

func (b *BridgeClient) stopped() bool {
	select {
	case <-b.stopCh:
		return true
	default:
		return false
	}
}

// invalidate drops a cached server connection if it is still the cached one
// (idempotent under concurrent failure detection by many subscriptions).
func (b *BridgeClient) invalidate(server string, broken *opcua.Client) {
	b.mu.Lock()
	if b.opcua[server] == broken {
		delete(b.opcua, server)
	}
	b.mu.Unlock()
	broken.Close()
}

// reconnect redials a server after invalidation, pacing retries with the
// shared resilience policy until the bridge stops. Returns nil when stopping.
func (b *BridgeClient) reconnect(server string) *opcua.Client {
	var client *opcua.Client
	err := resilience.Retry(b.stopCh, b.reconnectPolicy(), func() error {
		c, err := b.clientFor(server)
		if err != nil {
			return err
		}
		client = c
		return nil
	})
	if err != nil {
		return nil // stopping
	}
	b.mu.Lock()
	b.reconnects++
	b.mu.Unlock()
	return client
}

// Health reports liveness: the bridge must not be stopped and its broker
// connection must be alive. Loss of an OPC UA server connection is NOT a
// liveness failure — the bridge heals that itself by redialing.
func (b *BridgeClient) Health() error {
	if b.stopped() {
		return fmt.Errorf("stack: client %s: stopped", b.Config.Name)
	}
	b.mu.Lock()
	bc := b.broker
	b.mu.Unlock()
	if bc == nil {
		return fmt.Errorf("stack: client %s: no broker connection", b.Config.Name)
	}
	if err := bc.Err(); err != nil {
		return fmt.Errorf("stack: client %s: %w", b.Config.Name, err)
	}
	return nil
}

// Ready reports readiness: Health plus a live connection to every OPC UA
// server this bridge is configured against. A bridge mid-redial is alive
// but not ready.
func (b *BridgeClient) Ready() error {
	if err := b.Health(); err != nil {
		return err
	}
	want := map[string]bool{}
	for _, cm := range b.Config.Machines {
		want[cm.Server] = true
	}
	b.mu.Lock()
	var missing []string
	for server := range want {
		if b.opcua[server] == nil {
			missing = append(missing, server)
		}
	}
	b.mu.Unlock()
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("stack: client %s: no connection to %v", b.Config.Name, missing)
	}
	return nil
}

// Reconnects returns how many times server connections were re-established.
func (b *BridgeClient) Reconnects() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.reconnects
}

func (b *BridgeClient) clientFor(server string) (*opcua.Client, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if c, ok := b.opcua[server]; ok {
		return c, nil
	}
	addr, err := b.resolveServer(server)
	if err != nil {
		return nil, fmt.Errorf("stack: client %s: %w", b.Config.Name, err)
	}
	c, err := opcua.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("stack: client %s: server %s: %w", b.Config.Name, server, err)
	}
	b.opcua[server] = c
	return c, nil
}

func (b *BridgeClient) wireVariable(client *opcua.Client, cm codegen.ClientMachine, v codegen.VarConfig) error {
	_, ch, err := client.Subscribe(opcua.NodeID(v.NodeID))
	if err != nil {
		return fmt.Errorf("stack: client %s: subscribe %s: %w", b.Config.Name, v.NodeID, err)
	}
	b.wg.Add(1)
	go func() {
		cur, curCh := client, ch
		defer b.wg.Done()
		for {
			select {
			case <-b.stopCh:
				return
			case change, ok := <-curCh:
				if !ok {
					// Connection lost: invalidate, redial, resubscribe —
					// an OPC UA server restart heals transparently.
					b.invalidate(cm.Server, cur)
					for {
						next := b.reconnect(cm.Server)
						if next == nil {
							return // stopping
						}
						_, nextCh, err := next.Subscribe(opcua.NodeID(v.NodeID))
						if err == nil {
							cur, curCh = next, nextCh
							break
						}
						b.invalidate(cm.Server, next)
					}
					continue
				}
				var val any
				_ = json.Unmarshal(change.Value.Value, &val)
				if err := b.publishJSON(v.Topic, VariableSample{
					Machine: cm.Machine, Variable: v.Name, Category: v.Category,
					Type: v.Type, Value: val,
				}); err != nil {
					return
				}
			}
		}
	}()
	return nil
}

// payloadBuf is a pooled encode buffer for publish payloads: the bridge
// publishes one JSON body per variable change, and broker.Client frames the
// payload before Publish returns, so the buffer can be recycled immediately
// afterwards instead of allocating per sample.
type payloadBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var payloadPool = sync.Pool{New: func() any {
	p := &payloadBuf{}
	p.enc = json.NewEncoder(&p.buf)
	return p
}}

// publishJSON encodes v into a pooled buffer and publishes it to topic.
// An encode failure drops the sample (nil, matching the old skip-on-marshal
// behavior); a publish failure is returned so callers stop their loops.
func (b *BridgeClient) publishJSON(topic string, v any) error {
	p := payloadPool.Get().(*payloadBuf)
	p.buf.Reset()
	if err := p.enc.Encode(v); err != nil {
		payloadPool.Put(p)
		return nil
	}
	payload := p.buf.Bytes()
	payload = payload[:len(payload)-1] // drop the encoder's trailing newline
	err := b.publish(topic, payload)
	payloadPool.Put(p)
	return err
}

func (b *BridgeClient) publish(topic string, payload []byte) error {
	b.mu.Lock()
	bc := b.broker
	b.mu.Unlock()
	if bc == nil {
		return fmt.Errorf("stack: broker connection closed")
	}
	if err := bc.Publish(topic, payload, false); err != nil {
		return err
	}
	b.mu.Lock()
	b.published++
	b.mu.Unlock()
	return nil
}

func (b *BridgeClient) wireService(cm codegen.ClientMachine, m codegen.MethodConfig) error {
	b.mu.Lock()
	bc := b.broker
	b.mu.Unlock()
	// Service requests ride an acked session: a request published while this
	// bridge is down (or mid-restart) is redelivered once it reattaches under
	// the same deterministic session name, instead of being dropped. The ack
	// goes out only after the reply is published.
	session := "svc/" + b.Config.Name + "/" + m.RequestTopic
	subID, ch, err := bc.SubscribeSession(m.RequestTopic, session, 0)
	if err != nil {
		return fmt.Errorf("stack: client %s: subscribe %s: %w", b.Config.Name, m.RequestTopic, err)
	}
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		for {
			select {
			case <-b.stopCh:
				return
			case msg, ok := <-ch:
				if !ok {
					return
				}
				reply := b.invoke(cm.Server, m, msg.Payload)
				if err := b.publishJSON(m.ResponseTopic, reply); err != nil {
					return
				}
				// Ack failure is survivable: the broker redelivers and the
				// client-side session dedup absorbs the duplicate.
				_ = bc.Ack(subID, msg.Seq)
			}
		}
	}()
	return nil
}

// invoke proxies a service call to the OPC UA method node, looking up the
// current server connection each time (so a reconnected server is used) and
// retrying once through a fresh connection when the transport failed.
func (b *BridgeClient) invoke(server string, m codegen.MethodConfig, body []byte) ServiceReply {
	var req ServicePayload
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			return ServiceReply{OK: false, Error: "malformed request: " + err.Error()}
		}
	}
	args := make([]opcua.Variant, len(req.Args))
	for i, a := range req.Args {
		args[i] = opcua.V(a)
	}
	b.mu.Lock()
	b.calls++
	b.mu.Unlock()

	call := func() ([]opcua.Variant, error, *opcua.Client) {
		client, err := b.clientFor(server)
		if err != nil {
			return nil, err, nil
		}
		results, err := client.Call(opcua.NodeID(m.NodeID), args...)
		return results, err, client
	}
	results, err, client := call()
	if err != nil && client != nil {
		// Transport vs application error: a healthy connection can still
		// browse; if it cannot, redial once and retry the call.
		if _, berr := client.Browse(""); berr != nil {
			b.invalidate(server, client)
			results, err, _ = call()
		}
	}
	if err != nil {
		return ServiceReply{OK: false, Error: err.Error(), ID: req.ID}
	}
	out := make([]any, len(results))
	for i, r := range results {
		var v any
		_ = json.Unmarshal(r.Value, &v)
		out[i] = v
	}
	return ServiceReply{OK: true, Results: out, ID: req.ID}
}

// Stats returns lifetime counters (published samples, proxied calls).
func (b *BridgeClient) Stats() (published, calls uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.published, b.calls
}

// Stop disconnects everything.
func (b *BridgeClient) Stop() {
	select {
	case <-b.stopCh:
	default:
		close(b.stopCh)
	}
	b.mu.Lock()
	for name, c := range b.opcua {
		c.Close()
		delete(b.opcua, name)
	}
	bc := b.broker
	b.broker = nil
	b.mu.Unlock()
	if bc != nil {
		bc.Close()
	}
	b.wg.Wait()
}

// CallService is a convenience for invoking a machine service through the
// broker from any client connection (used by the SOM layer and tests).
func CallService(bc *broker.Client, m codegen.MethodConfig, args []any, timeout time.Duration) (ServiceReply, error) {
	payload, err := json.Marshal(ServicePayload{Args: args})
	if err != nil {
		return ServiceReply{}, err
	}
	raw, err := bc.Request(m.RequestTopic, m.ResponseTopic, payload, timeout)
	if err != nil {
		return ServiceReply{}, err
	}
	var reply ServiceReply
	if err := json.Unmarshal(raw, &reply); err != nil {
		return ServiceReply{}, fmt.Errorf("stack: malformed service reply: %w", err)
	}
	return reply, nil
}
