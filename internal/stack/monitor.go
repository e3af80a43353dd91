package stack

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"github.com/smartfactory/sysml2conf/internal/broker"
	"github.com/smartfactory/sysml2conf/internal/codegen"
)

// WorkcellMonitor computes the workcell-level monitoring attributes the
// model declares (paper Code 1: "variables can be defined to capture
// operational information relevant to the specific layer"): it subscribes
// to all machine values of its workcell, maintains the configured
// aggregations, and periodically publishes them on the workcell's
// "_monitor" topics.
type WorkcellMonitor struct {
	Config codegen.MonitorConfig

	brokerAddr string

	mu        sync.Mutex
	samples   uint64
	series    map[string]struct{}
	means     map[string]*meanAcc // variable name -> accumulator
	maxes     map[string]float64
	maxSeen   map[string]bool
	client    *broker.Client
	stopCh    chan struct{}
	wg        sync.WaitGroup
	publishes uint64
}

type meanAcc struct {
	sum   float64
	count uint64
}

// MonitorSample is the JSON payload published for every monitor attribute.
type MonitorSample struct {
	Workcell  string  `json:"workcell"`
	Attribute string  `json:"attribute"`
	Value     float64 `json:"value"`
}

// NewWorkcellMonitor builds the component; Start brings it up.
func NewWorkcellMonitor(cfg codegen.MonitorConfig, brokerAddr string) *WorkcellMonitor {
	return &WorkcellMonitor{
		Config:     cfg,
		brokerAddr: brokerAddr,
		series:     map[string]struct{}{},
		means:      map[string]*meanAcc{},
		maxes:      map[string]float64{},
		maxSeen:    map[string]bool{},
		stopCh:     make(chan struct{}),
	}
}

// Start connects to the broker, subscribes to the workcell's values and
// begins the publish ticker.
func (w *WorkcellMonitor) Start() error {
	client, err := broker.DialClient(w.brokerAddr)
	if err != nil {
		return fmt.Errorf("stack: monitor %s: %w", w.Config.Name, err)
	}
	_, ch, err := client.Subscribe(w.Config.SourceFilter)
	if err != nil {
		client.Close()
		return fmt.Errorf("stack: monitor %s: subscribe: %w", w.Config.Name, err)
	}
	w.mu.Lock()
	w.client = client
	w.mu.Unlock()

	w.wg.Add(2)
	go w.consume(ch)
	go w.publishLoop()
	return nil
}

func (w *WorkcellMonitor) consume(ch <-chan broker.Message) {
	defer w.wg.Done()
	for {
		select {
		case <-w.stopCh:
			return
		case m, ok := <-ch:
			if !ok {
				return
			}
			w.ingest(m)
		}
	}
}

func (w *WorkcellMonitor) ingest(m broker.Message) {
	variable, val, numeric, counted := readSample(m.Payload)
	if !counted {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.samples++
	w.series[m.Topic] = struct{}{}
	if !numeric {
		return
	}
	for _, attr := range w.Config.Attributes {
		if attr.Source == "" || attr.Source != string(variable) {
			continue
		}
		switch attr.Function {
		case codegen.FnMean:
			acc := w.means[attr.Source]
			if acc == nil {
				acc = &meanAcc{}
				w.means[attr.Source] = acc
			}
			acc.sum += val
			acc.count++
		case codegen.FnMax:
			if !w.maxSeen[attr.Source] || val > w.maxes[attr.Source] {
				w.maxes[attr.Source] = val
				w.maxSeen[attr.Source] = true
			}
		}
	}
}

// readSample reads what ingest needs of a VariableSample payload: whether
// the sample counts (it is one json.Unmarshal accepts), its variable, and
// its value as a number (a bool counts as 0 or 1). A payload scanSample
// reads is not decoded; anything else is, by json.Unmarshal.
func readSample(p []byte) (variable []byte, value float64, numeric, counted bool) {
	if variable, value, numeric, ok := scanSample(p); ok {
		return variable, value, numeric, true
	}
	var sample VariableSample
	if err := json.Unmarshal(p, &sample); err != nil {
		return nil, 0, false, false
	}
	value, numeric = asFloat(sample.Value)
	return []byte(sample.Variable), value, numeric, true
}

// sampleKeys are VariableSample's JSON keys; an index is a bit of
// scanSample's seen set.
var sampleKeys = [...]string{"machine", "variable", "category", "type", "value"}

// Indices of sampleKeys that scanSample reads.
const (
	keyVariable = 1
	keyValue    = 4
)

// scanSample reads a VariableSample payload's top-level variable and value
// without allocating, and agrees with json.Unmarshal into VariableSample on
// everything it reads: ok is true only for a valid JSON object whose keys
// are plain ASCII, each field key appears at most once and exactly as
// spelled (encoding/json also matches keys by bytes.EqualFold), the four
// string fields are strings, variable has no escapes, and value is a
// number in float64 range, a literal or a string. Any other payload (a
// nested value, null for a string field, a key spelled another way) gets
// ok false and goes to json.Unmarshal. variable points into p.
func scanSample(p []byte) (variable []byte, value float64, numeric, ok bool) {
	if !json.Valid(p) { // pooled scanner: no allocation
		return nil, 0, false, false
	}
	i := skipSpace(p, 0)
	if p[i] != '{' {
		return nil, 0, false, false
	}
	var seen uint
	for i = skipSpace(p, i+1); p[i] != '}'; i = skipSpace(p, i+1) {
		if p[i] == ',' {
			i = skipSpace(p, i+1)
		}
		end := stringEnd(p, i)
		key := p[i+1 : end-1]
		for _, c := range key {
			if c == '\\' || c >= utf8.RuneSelf {
				return nil, 0, false, false // encoding/json unescapes and Unicode-folds keys
			}
		}
		field := -1
		for k, name := range sampleKeys {
			if string(key) == name {
				field = k
				break
			}
			if bytes.EqualFold(key, []byte(name)) {
				return nil, 0, false, false // encoding/json matches keys case-insensitively
			}
		}
		i = skipSpace(p, skipSpace(p, end)+1) // past the colon
		if field < 0 {
			i = valueEnd(p, i) - 1
			continue
		}
		if seen&(1<<field) != 0 {
			return nil, 0, false, false // a repeated field: the last one wins
		}
		seen |= 1 << field
		switch c := p[i]; {
		case field != keyValue:
			if c != '"' {
				return nil, 0, false, false
			}
			end := stringEnd(p, i)
			if field == keyVariable {
				variable = p[i+1 : end-1]
				if bytes.IndexByte(variable, '\\') >= 0 || !utf8.Valid(variable) {
					return nil, 0, false, false
				}
			}
			i = end - 1
		case c == '"':
			i = stringEnd(p, i) - 1
		case c == 't' || c == 'f' || c == 'n':
			value, numeric = 0, c != 'n'
			if c == 't' {
				value = 1
			}
			i = valueEnd(p, i) - 1
		case c == '-' || (c >= '0' && c <= '9'):
			end := valueEnd(p, i)
			f, err := strconv.ParseFloat(string(p[i:end]), 64)
			if err != nil {
				return nil, 0, false, false // out of range: encoding/json refuses the payload
			}
			value, numeric = f, true
			i = end - 1
		default:
			return nil, 0, false, false // an object or array value
		}
	}
	return variable, value, numeric, true
}

func skipSpace(p []byte, i int) int {
	for i < len(p) && (p[i] == ' ' || p[i] == '\t' || p[i] == '\n' || p[i] == '\r') {
		i++
	}
	return i
}

// stringEnd returns the index just past the JSON string starting at
// p[i] == '"' (p is valid JSON).
func stringEnd(p []byte, i int) int {
	for i++; p[i] != '"'; i++ {
		if p[i] == '\\' {
			i++
		}
	}
	return i + 1
}

// valueEnd returns the index just past the JSON value starting at p[i]
// (p is valid JSON).
func valueEnd(p []byte, i int) int {
	switch p[i] {
	case '"':
		return stringEnd(p, i)
	case '{', '[':
		depth := 0
		for ; ; i++ {
			switch p[i] {
			case '"':
				i = stringEnd(p, i) - 1
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			}
		}
	}
	for i < len(p) && p[i] != ',' && p[i] != '}' && p[i] != ']' && p[i] != ' ' &&
		p[i] != '\t' && p[i] != '\n' && p[i] != '\r' {
		i++
	}
	return i
}

func asFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case bool:
		if x {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

func (w *WorkcellMonitor) publishLoop() {
	defer w.wg.Done()
	period := time.Duration(w.Config.PeriodMs) * time.Millisecond
	if period <= 0 {
		period = 500 * time.Millisecond
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-w.stopCh:
			return
		case <-ticker.C:
			w.publishOnce()
		}
	}
}

func (w *WorkcellMonitor) publishOnce() {
	w.mu.Lock()
	client := w.client
	type out struct {
		attr  codegen.MonitorAttr
		value float64
		ok    bool
	}
	var outs []out
	for _, attr := range w.Config.Attributes {
		o := out{attr: attr}
		switch attr.Function {
		case codegen.FnSamplesTotal:
			o.value, o.ok = float64(w.samples), true
		case codegen.FnVariablesLive:
			o.value, o.ok = float64(len(w.series)), true
		case codegen.FnMean:
			if acc := w.means[attr.Source]; acc != nil && acc.count > 0 {
				o.value, o.ok = acc.sum/float64(acc.count), true
			}
		case codegen.FnMax:
			if w.maxSeen[attr.Source] {
				o.value, o.ok = w.maxes[attr.Source], true
			}
		}
		outs = append(outs, o)
	}
	w.mu.Unlock()
	if client == nil {
		return
	}
	for _, o := range outs {
		if !o.ok {
			continue
		}
		payload, err := json.Marshal(MonitorSample{
			Workcell: w.Config.Workcell, Attribute: o.attr.Name, Value: o.value,
		})
		if err != nil {
			continue
		}
		if err := client.Publish(o.attr.Topic, payload, true); err != nil {
			return
		}
		w.mu.Lock()
		w.publishes++
		w.mu.Unlock()
	}
}

// Health reports liveness: the monitor must not be stopped and its broker
// connection must be alive.
func (w *WorkcellMonitor) Health() error {
	select {
	case <-w.stopCh:
		return fmt.Errorf("stack: monitor %s: stopped", w.Config.Name)
	default:
	}
	w.mu.Lock()
	client := w.client
	w.mu.Unlock()
	if client == nil {
		return fmt.Errorf("stack: monitor %s: no broker connection", w.Config.Name)
	}
	if err := client.Err(); err != nil {
		return fmt.Errorf("stack: monitor %s: %w", w.Config.Name, err)
	}
	return nil
}

// MonitorStats counts a monitor's ingest and publishes.
type MonitorStats struct {
	Samples    uint64 // samples ingested
	Publishes  uint64 // aggregates published
	LiveSeries int    // series currently tracked
}

// Stats returns the monitor's counters.
func (w *WorkcellMonitor) Stats() MonitorStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return MonitorStats{Samples: w.samples, Publishes: w.publishes, LiveSeries: len(w.series)}
}

// Stop disconnects the monitor.
func (w *WorkcellMonitor) Stop() {
	select {
	case <-w.stopCh:
	default:
		close(w.stopCh)
	}
	w.mu.Lock()
	client := w.client
	w.client = nil
	w.mu.Unlock()
	if client != nil {
		client.Close()
	}
	w.wg.Wait()
}
