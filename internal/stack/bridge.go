package stack

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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
// also listens on each machine's service request topics, through one
// broker session per machine, and proxies each call to the OPC UA method
// node, publishing the result on the service's response topic.
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
	failed     error // why a bridge loop ended other than by Stop
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
// subscriptions and service listeners. It refuses, with ErrServiceTopics
// and before dialing anything, service topics that one session per machine
// cannot serve (see serviceFilters).
func (b *BridgeClient) Start() error {
	filters, err := b.serviceFilters()
	if err != nil {
		return err
	}
	bc, err := broker.DialClient(b.brokerAddr)
	if err != nil {
		return fmt.Errorf("stack: client %s: %w", b.Config.Name, err)
	}
	b.mu.Lock()
	b.broker = bc
	b.mu.Unlock()

	for i, cm := range b.Config.Machines {
		client, err := b.clientFor(cm.Server)
		if err != nil {
			b.Stop()
			return err
		}
		if len(cm.Subscriptions) > 0 {
			if err := b.wireMachine(client, cm); err != nil {
				b.Stop()
				return err
			}
		}
		if len(cm.Methods) > 0 {
			if err := b.wireServices(cm, filters[i]); err != nil {
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

// Health reports liveness: the bridge must not be stopped, every bridge
// loop must still run and its broker connection must be alive. Loss of an
// OPC UA server connection is NOT a liveness failure — the bridge heals
// that itself by redialing.
func (b *BridgeClient) Health() error {
	if b.stopped() {
		return fmt.Errorf("stack: client %s: stopped", b.Config.Name)
	}
	b.mu.Lock()
	bc, failed := b.broker, b.failed
	b.mu.Unlock()
	if failed != nil {
		return fmt.Errorf("stack: client %s: bridge loop ended: %w", b.Config.Name, failed)
	}
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

// wireMachine subscribes every configured variable of a machine in one
// request and bridges the machine's changes from one goroutine: each change
// becomes a VariableSample payload (spliced from the server's value bytes
// where that is byte-identical, see publishChange) and is staged with the
// broker client's coalescing writer (PublishAsync), so a machine's burst of
// changes leaves in one write instead of one round trip per sample. When
// the server connection drops, the loop redials and resubscribes the
// machine's list in one request. The loop returns on Stop; any other exit
// is a failure that Health reports.
func (b *BridgeClient) wireMachine(client *opcua.Client, cm codegen.ClientMachine) error {
	ids := make([]opcua.NodeID, len(cm.Subscriptions))
	encs := make([]sampleEncoder, len(cm.Subscriptions))
	for i, v := range cm.Subscriptions {
		ids[i] = opcua.NodeID(v.NodeID)
		encs[i] = newSampleEncoder(VariableSample{
			Machine: cm.Machine, Variable: v.Name, Category: v.Category, Type: v.Type,
		})
	}
	sub, err := client.SubscribeNodes(ids)
	if err != nil {
		return fmt.Errorf("stack: client %s: subscribe machine %s: %w", b.Config.Name, cm.Machine, err)
	}
	b.mu.Lock()
	bc := b.broker
	b.mu.Unlock()
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		cur := client
		var batch []opcua.DataChange
		var payload []byte // reused: PublishAsync frames it before returning
		for {
			select {
			case <-b.stopCh:
				return
			case <-sub.Ready():
			}
			var open bool
			batch, open = sub.Take(batch[:0])
			for _, change := range batch {
				i := sub.Index(change)
				var err error
				payload, err = b.publishChange(bc.PublishAsync, &encs[i], cm.Subscriptions[i].Topic, change.Value.Value, payload)
				if err != nil {
					b.loopFailed(fmt.Errorf("machine %s: publish: %w", cm.Machine, err))
					return
				}
			}
			if open {
				continue
			}
			// Connection lost: invalidate, redial, resubscribe — an OPC UA
			// server restart heals transparently.
			b.invalidate(cm.Server, cur)
			for {
				next := b.reconnect(cm.Server)
				if next == nil {
					return // stopping
				}
				if resub, err := next.SubscribeNodes(ids); err == nil {
					sub, cur = resub, next
					break
				}
				b.invalidate(cm.Server, next)
			}
		}
	}()
	return nil
}

// loopFailed records why a bridge loop ended other than by Stop, so that
// Health fails and the supervisor restarts the pod instead of leaving part
// of the plant silent.
func (b *BridgeClient) loopFailed(err error) {
	if b.stopped() {
		return
	}
	b.mu.Lock()
	if b.failed == nil {
		b.failed = err
	}
	b.mu.Unlock()
}

// payloadBuf is a pooled encode buffer for publish payloads: the bridge
// publishes one JSON body per variable change, and broker.Client frames the
// payload before Publish or PublishAsync returns, so the buffer can be
// recycled immediately afterwards instead of allocating per sample.
type payloadBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var payloadPool = sync.Pool{New: func() any {
	p := &payloadBuf{}
	p.enc = json.NewEncoder(&p.buf)
	return p
}}

// publishJSON encodes v into a pooled buffer and hands it to publish
// (a broker.Client's Publish or PublishAsync) for topic. An encode failure
// drops the sample (nil, matching the old skip-on-marshal behavior); a
// publish failure is returned so callers stop their loops.
func (b *BridgeClient) publishJSON(publish func(topic string, payload []byte, retain bool) error, topic string, v any) error {
	p := payloadPool.Get().(*payloadBuf)
	p.buf.Reset()
	if err := p.enc.Encode(v); err != nil {
		payloadPool.Put(p)
		return nil
	}
	payload := p.buf.Bytes()
	payload = payload[:len(payload)-1] // drop the encoder's trailing newline
	err := publish(topic, payload, false)
	payloadPool.Put(p)
	if err != nil {
		return err
	}
	b.mu.Lock()
	b.published++
	b.mu.Unlock()
	return nil
}

// publishChange publishes the VariableSample of one change whose JSON
// value bytes are raw, and returns buf for reuse (publish frames the
// payload before returning). Where raw is spliceable, the payload is e's
// prefix, raw and the closing brace, assembled in buf: byte for byte what
// decoding raw and encoding the sample gives, because encoding the value
// json.Unmarshal reads from raw gives raw back. Any other raw is decoded
// and re-encoded by publishJSON, as every change once was.
func (b *BridgeClient) publishChange(publish func(topic string, payload []byte, retain bool) error, e *sampleEncoder, topic string, raw, buf []byte) ([]byte, error) {
	if !spliceable(raw) {
		sample := e.tmpl
		_ = json.Unmarshal(raw, &sample.Value)
		return buf, b.publishJSON(publish, topic, sample)
	}
	buf = append(append(append(buf[:0], e.prefix...), raw...), '}')
	if err := publish(topic, buf, false); err != nil {
		return buf, err
	}
	b.mu.Lock()
	b.published++
	b.mu.Unlock()
	return buf, nil
}

// sampleEncoder holds what the payloads of one subscribed variable share.
// Four of a sample's five fields are fixed per variable, so their encoding
// is made once, by the encoder publishJSON uses (same HTML escaping), up to
// and including the value's key.
type sampleEncoder struct {
	tmpl   VariableSample // every field but Value
	prefix []byte         // tmpl's payload up to and including `"value":`
}

func newSampleEncoder(tmpl VariableSample) sampleEncoder {
	p := payloadPool.Get().(*payloadBuf)
	defer payloadPool.Put(p)
	p.buf.Reset()
	_ = p.enc.Encode(tmpl) // strings and a nil value: cannot fail
	enc := p.buf.Bytes()
	// The encoding ends in `"value":null}` and the encoder's newline.
	return sampleEncoder{tmpl: tmpl, prefix: append([]byte(nil), enc[:len(enc)-len("null}\n")]...)}
}

// spliceable reports, without allocating, whether raw is what json.Marshal
// writes for the value json.Unmarshal reads from raw: a literal, a finite
// number in encoding/json's float format, or a string of printable ASCII
// that needs no escape (the encoder escapes <, > and & for HTML).
func spliceable(raw []byte) bool {
	if len(raw) == 0 {
		return false
	}
	switch c := raw[0]; {
	case c == '"':
		if len(raw) < 2 || raw[len(raw)-1] != '"' {
			return false
		}
		for _, c := range raw[1 : len(raw)-1] {
			if c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
				return false
			}
		}
		return true
	case c == '-' || (c >= '0' && c <= '9'):
		f, err := strconv.ParseFloat(string(raw), 64)
		if err != nil || math.IsInf(f, 0) {
			return false // ParseFloat also reads "-Inf", which would re-encode to itself
		}
		var buf [32]byte
		return bytes.Equal(appendJSONFloat(buf[:0], f), raw)
	}
	switch string(raw) {
	case "true", "false", "null":
		return true
	}
	return false
}

// appendJSONFloat appends f as encoding/json encodes a float64: the
// shortest representation, in exponent form outside [1e-6, 1e21), with a
// two-digit negative exponent trimmed to one ("1e-07" -> "1e-7").
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// ErrServiceTopics is what Start refuses a client configuration with when
// its service topics cannot be served by one session per machine: a
// request topic not of the shape <base>/<service>/request, a machine whose
// request topics have two bases, or two machines of one client with one
// filter.
var ErrServiceTopics = errors.New("service topics not servable by one session per machine")

// serviceFilters returns, per machine of the client (indexed like
// Config.Machines, "" for a machine without methods), the filter
// <base>/+/request that covers the machine's request topics as
// codegen.TopicsForService emits them, and no other machine's.
func (b *BridgeClient) serviceFilters() ([]string, error) {
	filters := make([]string, len(b.Config.Machines))
	owner := map[string]string{} // filter -> machine
	for i, cm := range b.Config.Machines {
		var base string
		for _, m := range cm.Methods {
			mb, ok := requestBase(m.RequestTopic)
			if !ok {
				return nil, fmt.Errorf("stack: client %s: machine %s: request topic %q is not <base>/<service>/request: %w",
					b.Config.Name, cm.Machine, m.RequestTopic, ErrServiceTopics)
			}
			if base != "" && mb != base {
				return nil, fmt.Errorf("stack: client %s: machine %s: request topics under %s and %s: %w",
					b.Config.Name, cm.Machine, base, mb, ErrServiceTopics)
			}
			base = mb
		}
		if base == "" {
			continue
		}
		filters[i] = base + "/+/request"
		if prev, dup := owner[filters[i]]; dup {
			return nil, fmt.Errorf("stack: client %s: machines %s and %s share the service filter %s: %w",
				b.Config.Name, prev, cm.Machine, filters[i], ErrServiceTopics)
		}
		owner[filters[i]] = cm.Machine
	}
	return filters, nil
}

// requestBase splits a request topic <base>/<service>/request into its
// base; ok is false for any other shape. A topic with a wildcard is no
// request topic (nothing can publish on it), and an empty base or service
// level is not the shape.
func requestBase(topic string) (base string, ok bool) {
	rest, ok := strings.CutSuffix(topic, "/request")
	i := strings.LastIndexByte(rest, '/')
	if !ok || i <= 0 || i == len(rest)-1 || strings.ContainsAny(topic, "+#") {
		return "", false
	}
	return rest[:i], true
}

// wireServices serves every service of a machine from one acked session on
// filter, named svc/<client>/<machine>, and one loop that takes the
// machine's requests in order and dispatches each by topic. A request
// published while this bridge is down (or mid-restart) is redelivered once
// it reattaches under the same session name, instead of being dropped. The
// reply is staged with PublishAsync and the ack queued behind it, so both
// leave in one flush and the ack never precedes the reply: a connection
// lost before the flush loses both, and the request is redelivered. One
// loop per machine keeps the acks cumulative: a machine's calls run one at
// a time, in the order they reached the broker. A request on the filter
// that names no configured service is answered with a failed reply on its
// response topic rather than left to time out.
func (b *BridgeClient) wireServices(cm codegen.ClientMachine, filter string) error {
	b.mu.Lock()
	bc := b.broker
	b.mu.Unlock()
	methods := make(map[string]codegen.MethodConfig, len(cm.Methods))
	for _, m := range cm.Methods {
		methods[m.RequestTopic] = m
	}
	session := "svc/" + b.Config.Name + "/" + cm.Machine
	subID, ch, err := bc.SubscribeSession(filter, session, 0)
	if err != nil {
		return fmt.Errorf("stack: client %s: subscribe %s: %w", b.Config.Name, filter, err)
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
					b.loopFailed(fmt.Errorf("services of machine %s: broker subscription ended", cm.Machine))
					return
				}
				var reply ServiceReply
				var respTopic string
				if m, ok := methods[msg.Topic]; ok {
					reply, respTopic = b.invoke(cm.Server, m, msg.Payload), m.ResponseTopic
				} else {
					reply, respTopic = unknownService(cm.Machine, msg.Topic, msg.Payload)
				}
				if err := b.publishJSON(bc.PublishAsync, respTopic, reply); err != nil {
					b.loopFailed(fmt.Errorf("services of machine %s: publish: %w", cm.Machine, err))
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

// unknownService is the reply to a request on a machine's service filter
// whose topic, <base>/<service>/request, names no configured service, and
// the topic it goes out on, <base>/<service>/response. It fails, names the
// service and echoes the request's ID, so the caller hears at once instead
// of waiting out its timeout.
func unknownService(machine, topic string, body []byte) (ServiceReply, string) {
	var req ServicePayload
	_ = json.Unmarshal(body, &req) // a malformed body still gets the reply, without an ID
	rest := strings.TrimSuffix(topic, "/request")
	svc := rest[strings.LastIndexByte(rest, '/')+1:]
	return ServiceReply{OK: false, Error: fmt.Sprintf("machine %s has no service %q", machine, svc), ID: req.ID},
		rest + "/response"
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

// BridgeStats counts a bridge client's traffic over its lifetime.
type BridgeStats struct {
	Published  uint64 // samples published to the broker
	Calls      uint64 // service calls proxied to machine servers
	Reconnects uint64 // server connections re-established
}

// Stats returns the client's lifetime counters.
func (b *BridgeClient) Stats() BridgeStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BridgeStats{Published: b.published, Calls: b.calls, Reconnects: b.reconnects}
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
// broker from any client connection (used by the SOM layer and tests). Each
// call carries a fresh ServicePayload.ID, and only the reply echoing it is
// taken: every client that calls a service hears every reply on its
// response topic, and a reply to another caller — or to this caller's own
// earlier call that timed out — is dropped while the wait goes on.
func CallService(bc *broker.Client, m codegen.MethodConfig, args []any, timeout time.Duration) (ServiceReply, error) {
	id := callPrefix + strconv.FormatUint(callSeq.Add(1), 36)
	payload, err := json.Marshal(ServicePayload{Args: args, ID: id})
	if err != nil {
		return ServiceReply{}, err
	}
	var reply ServiceReply
	if _, err := bc.Request(m.RequestTopic, m.ResponseTopic, payload, func(raw []byte) bool {
		var r ServiceReply
		if json.Unmarshal(raw, &r) != nil || r.ID != id {
			return false
		}
		reply = r
		return true
	}, timeout); err != nil {
		return ServiceReply{}, err
	}
	return reply, nil
}

// callPrefix and callSeq make service call IDs: random per process, so
// callers in different processes sharing a broker never collide, and
// counted within it.
var (
	callPrefix = newCallPrefix()
	callSeq    atomic.Uint64
)

func newCallPrefix() string {
	var b [6]byte
	_, _ = rand.Read(b[:]) // crypto/rand does not fail on supported platforms
	return hex.EncodeToString(b[:]) + "-"
}
