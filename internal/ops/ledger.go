package ops

import (
	"encoding/json"
	"sync"
	"time"
)

// LedgerEntry records one completed step: which machine actually executed
// it (after any rebinds), the broker sequence number its event rides, and
// when it completed. Entries are the campaign's source of truth — the
// plan-vs-actual auditor reconciles them against the historian, and a
// restarted executor consults them to skip already-completed steps.
type LedgerEntry struct {
	StepID   string
	Part     int
	Op       int
	Machine  string
	Topic    string
	Seq      uint64 // broker publish sequence (assigned in completion order)
	Attempts int
	At       time.Time
}

// Ledger is the idempotent completion record for one campaign. It is safe
// for concurrent use and survives executor restarts: hand the same Ledger
// to a new Executor and completed steps are neither re-dispatched nor
// re-published (broker-side (session, seq) dedup absorbs replays of
// anything already flushed).
type Ledger struct {
	Campaign string

	mu      sync.Mutex
	entries []LedgerEntry     // completion order; entry i has Seq i+1
	byStep  map[string]uint64 // step ID → Seq of its entry
	flushed uint64            // highest seq acknowledged by the broker
}

// NewLedger creates an empty ledger for a campaign.
func NewLedger(campaign string) *Ledger {
	return &Ledger{Campaign: campaign, byStep: map[string]uint64{}}
}

// Session is the broker publisher session the campaign's events ride —
// stable across executor restarts so (session, seq) dedup holds.
func (l *Ledger) Session() string { return "campaign/" + l.Campaign }

// Record appends a completion, assigning the next publish sequence. It is
// idempotent by step ID: recording an already-completed step returns the
// existing entry.
func (l *Ledger) Record(stepID string, part, op int, machine, topic string, attempts int) LedgerEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq, ok := l.byStep[stepID]; ok {
		return l.entries[seq-1]
	}
	e := LedgerEntry{
		StepID: stepID, Part: part, Op: op,
		Machine: machine, Topic: topic,
		Seq: uint64(len(l.entries) + 1), Attempts: attempts,
		At: time.Now(),
	}
	l.entries = append(l.entries, e)
	l.byStep[stepID] = e.Seq
	return e
}

// Completed reports whether the step already completed.
func (l *Ledger) Completed(stepID string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.byStep[stepID]
	return ok
}

// Len returns the number of completed steps.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// LastSeq returns the highest assigned publish sequence.
func (l *Ledger) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return uint64(len(l.entries))
}

// Entry returns the entry carrying seq (1-based), or false when seq has
// not been assigned yet.
func (l *Ledger) Entry(seq uint64) (LedgerEntry, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq == 0 || seq > uint64(len(l.entries)) {
		return LedgerEntry{}, false
	}
	return l.entries[seq-1], true
}

// Flushed returns the highest broker-acknowledged sequence.
func (l *Ledger) Flushed() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushed
}

// SetFlushed raises the broker-acknowledged high-water mark (monotonic).
func (l *Ledger) SetFlushed(seq uint64) {
	l.mu.Lock()
	if seq > l.flushed {
		l.flushed = seq
	}
	l.mu.Unlock()
}

// ResetFlushed clears the broker-acknowledged watermark, making the next
// publisher replay the event stream from the start — what a restarted
// process that lost its in-memory watermark does. Broker-side
// (session, seq) dedup absorbs the replayed prefix.
func (l *Ledger) ResetFlushed() {
	l.mu.Lock()
	l.flushed = 0
	l.mu.Unlock()
}

// PerMachine returns completed-step counts keyed by the machine that
// actually executed each step.
func (l *Ledger) PerMachine() map[string]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[string]int{}
	for i := range l.entries {
		out[l.entries[i].Machine]++
	}
	return out
}

// PerTopic returns completed-step counts and step-ID sets keyed by ledger
// topic — the granularity the historian stores campaign series at.
func (l *Ledger) PerTopic() map[string][]string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[string][]string{}
	for i := range l.entries {
		e := &l.entries[i]
		out[e.Topic] = append(out[e.Topic], e.StepID)
	}
	return out
}

// Span returns the completion-time range of the ledger (zero times when
// empty).
func (l *Ledger) Span() (first, last time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) == 0 {
		return
	}
	return l.entries[0].At, l.entries[len(l.entries)-1].At
}

// eventPayload is the JSON body of one step-completion event. The
// top-level numeric "value" keeps the historian's ingest-time rollups and
// /aggregate windows counting steps like any other telemetry series.
type eventPayload struct {
	Value    float64 `json:"value"`
	Step     string  `json:"step"`
	Campaign string  `json:"campaign"`
	Part     int     `json:"part"`
	Op       int     `json:"op"`
	Machine  string  `json:"machine"`
	Attempts int     `json:"attempts"`
}

func marshalEvent(campaign string, e LedgerEntry) []byte {
	data, _ := json.Marshal(eventPayload{
		Value: 1, Step: e.StepID, Campaign: campaign,
		Part: e.Part, Op: e.Op, Machine: e.Machine, Attempts: e.Attempts,
	})
	return data
}
