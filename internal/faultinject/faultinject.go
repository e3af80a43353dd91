// Package faultinject provides a seedable, deterministic fault-injection
// substrate for the simulated plant's network layer. An Injector wraps the
// net.Listeners of machine emulators, OPC UA servers and the message broker
// and, driven by per-component rules, refuses accepts, drops established
// connections, adds latency and truncates writes. All randomness flows from
// one seeded source, so a chaos run is reproducible: the same seed yields
// the same fault-decision sequence for the same sequence of network
// operations. Components are addressed by name ("broker",
// "opcua:<server>", "machine:<name>") so chaos tests become declarative —
// set a rule, let the supervisor heal the plant, assert convergence.
package faultinject

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"
)

// Rule configures the faults injected on one named component. Rates are
// probabilities in [0,1] evaluated per network operation.
type Rule struct {
	// RefuseRate is the probability an accepted connection is immediately
	// closed (the client sees a reset — effectively a refused accept).
	RefuseRate float64
	// DropRate is the probability, evaluated at each read and write, that
	// the connection is torn down mid-flight.
	DropRate float64
	// Latency is added to every read on the connection.
	Latency time.Duration
	// TruncateRate is the probability a write is cut short: only a prefix
	// of the payload is written before the connection drops, corrupting the
	// peer's framing exactly like a mid-write crash would.
	TruncateRate float64
}

// DiskRule configures the faults injected on one named disk (a historian's
// WAL directory, wrapped via WrapFS). Rates are probabilities in [0,1].
type DiskRule struct {
	// SyncErrorRate is the probability an fsync fails. The WAL treats a
	// failed fsync as a poisoned log, so one hit forces the pod through the
	// reopen-and-replay recovery path.
	SyncErrorRate float64
	// TornWriteRate is the probability a write lands only partially before
	// erroring — the on-disk image a crash mid-write leaves behind.
	TornWriteRate float64
}

// Stats counts the faults injected on one named component.
type Stats struct {
	Accepts     uint64 // connections handed to the component
	Refusals    uint64 // accepts refused
	Drops       uint64 // connections dropped at read/write
	Truncations uint64 // writes truncated
	Delayed     uint64 // reads delayed by the latency rule
	TornWrites  uint64 // disk writes torn short
	SyncErrors  uint64 // fsyncs failed
}

// Injector owns the seeded randomness and the per-component rules.
type Injector struct {
	mu          sync.Mutex
	rng         *rand.Rand
	rules       map[string]Rule
	disk        map[string]DiskRule
	partitioned map[string]bool
	stats       map[string]*Stats
	conns       map[string]map[*faultConn]struct{}
}

// New creates an injector whose fault decisions derive from seed.
func New(seed int64) *Injector {
	return &Injector{
		rng:         rand.New(rand.NewSource(seed)),
		rules:       map[string]Rule{},
		disk:        map[string]DiskRule{},
		partitioned: map[string]bool{},
		stats:       map[string]*Stats{},
		conns:       map[string]map[*faultConn]struct{}{},
	}
}

// Set installs (or replaces) the fault rule for a named component.
func (in *Injector) Set(name string, r Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules[name] = r
}

// SetDisk installs (or replaces) the disk-fault rule for a named disk.
func (in *Injector) SetDisk(name string, r DiskRule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.disk[name] = r
}

// Clear removes the fault and disk rules for a named component (existing
// connections stay up; no further faults are injected).
func (in *Injector) Clear(name string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.rules, name)
	delete(in.disk, name)
}

// ClearAll removes every rule and lifts every partition.
func (in *Injector) ClearAll() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = map[string]Rule{}
	in.disk = map[string]DiskRule{}
	in.partitioned = map[string]bool{}
}

// Partition isolates (or reconnects) a component: while partitioned, every
// live connection through its listener is severed and all new accepts are
// refused.
func (in *Injector) Partition(name string, on bool) {
	in.mu.Lock()
	in.partitioned[name] = on
	var victims []*faultConn
	if on {
		for c := range in.conns[name] {
			victims = append(victims, c)
		}
	}
	in.mu.Unlock()
	for _, c := range victims {
		c.Close()
	}
}

// Partitioned reports whether a component is currently isolated.
func (in *Injector) Partitioned(name string) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.partitioned[name]
}

// Stats returns a copy of the per-component fault counters, keyed by name.
func (in *Injector) Stats() map[string]Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]Stats, len(in.stats))
	for name, s := range in.stats {
		out[name] = *s
	}
	return out
}

// Names lists every component that has seen traffic or rules, sorted.
func (in *Injector) Names() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	seen := map[string]bool{}
	for n := range in.stats {
		seen[n] = true
	}
	for n := range in.rules {
		seen[n] = true
	}
	var out []string
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// roll draws one seeded decision; p <= 0 never fires, p >= 1 always fires.
func (in *Injector) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Float64() < p
}

func (in *Injector) rule(name string) (Rule, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rules[name], in.partitioned[name]
}

func (in *Injector) diskRule(name string) DiskRule {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.disk[name]
}

func (in *Injector) statsFor(name string) *Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	s := in.stats[name]
	if s == nil {
		s = &Stats{}
		in.stats[name] = s
	}
	return s
}

func (in *Injector) track(name string, c *faultConn) {
	in.mu.Lock()
	defer in.mu.Unlock()
	m := in.conns[name]
	if m == nil {
		m = map[*faultConn]struct{}{}
		in.conns[name] = m
	}
	m[c] = struct{}{}
}

func (in *Injector) untrack(name string, c *faultConn) {
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.conns[name], c)
}

// Dial opens a client connection subject to the named component's fault
// rule — the client-side counterpart of Wrap, for links the plant
// originates itself (federation bridge pulls and cross-shard publish
// uplinks). A partitioned name refuses new dials and severs the live
// connections dialed under it, so Partition isolates one bridge link
// without touching the broker nodes behind it; DropRate, Latency and
// TruncateRate apply to the dialed connection's frames exactly as they
// do on the listener side.
func (in *Injector) Dial(name, addr string, timeout time.Duration) (net.Conn, error) {
	st := in.statsFor(name)
	rule, part := in.rule(name)
	if part || in.roll(rule.RefuseRate) {
		in.mu.Lock()
		st.Refusals++
		in.mu.Unlock()
		return nil, fmt.Errorf("faultinject: dial %s: connection refused (injected)", name)
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	fc := &faultConn{Conn: conn, name: name, in: in}
	in.track(name, fc)
	in.mu.Lock()
	st.Accepts++
	in.mu.Unlock()
	return fc, nil
}

// Wrap decorates a listener so that connections accepted through it are
// subject to the named component's fault rule. Wrapping is transparent when
// no rule is set.
func (in *Injector) Wrap(name string, ln net.Listener) net.Listener {
	return &faultListener{Listener: ln, name: name, in: in}
}

type faultListener struct {
	net.Listener
	name string
	in   *Injector
}

func (l *faultListener) Accept() (net.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		st := l.in.statsFor(l.name)
		rule, part := l.in.rule(l.name)
		if part || l.in.roll(rule.RefuseRate) {
			// Counted before the close, which is what the peer sees.
			l.in.mu.Lock()
			st.Refusals++
			l.in.mu.Unlock()
			conn.Close()
			continue
		}
		fc := &faultConn{Conn: conn, name: l.name, in: l.in}
		l.in.track(l.name, fc)
		l.in.mu.Lock()
		st.Accepts++
		l.in.mu.Unlock()
		return fc, nil
	}
}

type faultConn struct {
	net.Conn
	name      string
	in        *Injector
	closeOnce sync.Once
}

func (c *faultConn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		c.in.untrack(c.name, c)
		err = c.Conn.Close()
	})
	return err
}

// dropNow tears the connection down and counts the drop.
func (c *faultConn) dropNow(st *Stats) {
	c.in.mu.Lock()
	st.Drops++
	c.in.mu.Unlock()
	c.Close()
}

func (c *faultConn) Read(p []byte) (int, error) {
	rule, part := c.in.rule(c.name)
	st := c.in.statsFor(c.name)
	if part || c.in.roll(rule.DropRate) {
		c.dropNow(st)
		return 0, net.ErrClosed
	}
	if rule.Latency > 0 {
		c.in.mu.Lock()
		st.Delayed++
		c.in.mu.Unlock()
		time.Sleep(rule.Latency)
	}
	return c.Conn.Read(p)
}

func (c *faultConn) Write(p []byte) (int, error) {
	rule, part := c.in.rule(c.name)
	st := c.in.statsFor(c.name)
	if part || c.in.roll(rule.DropRate) {
		c.dropNow(st)
		return 0, net.ErrClosed
	}
	if len(p) > 1 && c.in.roll(rule.TruncateRate) {
		n, _ := c.Conn.Write(p[:len(p)/2])
		c.in.mu.Lock()
		st.Truncations++
		c.in.mu.Unlock()
		c.Close()
		return n, net.ErrClosed
	}
	return c.Conn.Write(p)
}
