// Tracing: a zero-dependency hierarchical span layer over the same
// philosophy as the metrics half of this package. A Tracer hands out Spans
// (ID, parent link, start/end timestamps, typed attributes, error status);
// ending a span pushes an immutable SpanRecord into a mutex-guarded ring of
// recent completions, which can be exported as JSONL or rendered as a
// compact one-line-per-span tree. The restore pipeline uses span names
// matching the paper's protocol phases (attest, request_meta, request_data,
// decrypt, restore, seal), so one launch yields an auditable phase ordering
// and a per-phase latency budget.
//
// Everything is safe for concurrent use, and — like Registry — every method
// is safe on a nil *Tracer or nil *Span, so instrumented code needs no nil
// checks and tracing costs almost nothing when disabled.
package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SpanRecord is the exported, immutable form of a completed span. TraceID
// is the SpanID of the trace's root span; ParentID is zero for roots. Svc
// names the process role that recorded the span ("client", "server", ...)
// so merged cross-process traces keep per-hop attribution.
type SpanRecord struct {
	TraceID  uint64         `json:"trace"`
	SpanID   uint64         `json:"span"`
	ParentID uint64         `json:"parent,omitempty"`
	Name     string         `json:"name"`
	Svc      string         `json:"svc,omitempty"`
	StartNS  int64          `json:"start_ns"` // unix nanoseconds
	EndNS    int64          `json:"end_ns"`
	Error    string         `json:"error,omitempty"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

// Duration is the span's wall time.
func (r SpanRecord) Duration() time.Duration {
	return time.Duration(r.EndNS - r.StartNS)
}

// DefaultSpanRing is the ring capacity NewTracer(0) uses.
const DefaultSpanRing = 4096

// Tracer creates spans and retains the most recent completions in a fixed
// ring (oldest evicted first).
type Tracer struct {
	ids atomic.Uint64 // span ID allocator; IDs are unique per tracer

	mu      sync.Mutex
	svc     string       // service tag stamped onto every completed span
	ring    []SpanRecord // completed spans; wraps at cap
	next    int          // ring write cursor once full
	full    bool
	cap     int
	evicted uint64 // completed spans pushed out of the ring
}

// NewTracer builds a tracer retaining up to ringCap completed spans
// (DefaultSpanRing when ringCap <= 0). The span ID allocator starts at a
// random 63-bit base: IDs stay monotonic per tracer, but two tracers —
// in particular a client and a server on opposite ends of the attested
// channel — allocate from disjoint ranges, so spans merged across
// processes into one trace keep distinct IDs.
func NewTracer(ringCap int) *Tracer {
	if ringCap <= 0 {
		ringCap = DefaultSpanRing
	}
	t := &Tracer{cap: ringCap}
	t.ids.Store(rand.Uint64() >> 1) // clear the top bit: no wrap within a process lifetime
	return t
}

// SetService tags every span subsequently completed on this tracer with a
// service name ("client", "server", ...). Records that already carry a
// Svc — e.g. synthesized via Add — keep theirs. Safe on a nil tracer.
func (t *Tracer) SetService(svc string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.svc = svc
	t.mu.Unlock()
}

// Start begins a root span of a new trace. Safe on a nil tracer (returns a
// nil span whose methods all no-op).
func (t *Tracer) Start(name string) *Span { return t.StartAt(name, time.Now()) }

// StartAt is Start with an explicit start time.
func (t *Tracer) StartAt(name string, start time.Time) *Span {
	if t == nil {
		return nil
	}
	id := t.ids.Add(1)
	return &Span{
		t: t,
		rec: SpanRecord{
			TraceID: id,
			SpanID:  id,
			Name:    name,
			StartNS: start.UnixNano(),
		},
	}
}

// StartRemote begins a span that continues a trace started in another
// process: the wire handshake carries the caller's trace ID and span ID,
// and the server parents its session span under them, so the merged JSONL
// from both sides renders as one tree. A zero traceID means the peer is
// not tracing and the span becomes
// an ordinary local root. Safe on a nil tracer.
func (t *Tracer) StartRemote(name string, traceID, parentID uint64) *Span {
	if t == nil {
		return nil
	}
	if traceID == 0 {
		return t.Start(name)
	}
	return &Span{
		t: t,
		rec: SpanRecord{
			TraceID:  traceID,
			SpanID:   t.ids.Add(1),
			ParentID: parentID,
			Name:     name,
			StartNS:  time.Now().UnixNano(),
		},
	}
}

// Add records a fully-formed span directly (a SpanID is allocated when
// zero). Pipeline code uses this to synthesize spans for phases whose
// boundaries are only known after the fact — e.g. the enclave-internal
// self-modification, derived from the surrounding observable events.
func (t *Tracer) Add(rec SpanRecord) {
	if t == nil {
		return
	}
	if rec.SpanID == 0 {
		rec.SpanID = t.ids.Add(1)
	}
	t.push(rec)
}

// push appends one completed record to the ring, evicting the oldest at
// capacity.
func (t *Tracer) push(rec SpanRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rec.Svc == "" {
		rec.Svc = t.svc
	}
	if !t.full {
		t.ring = append(t.ring, rec)
		if len(t.ring) == t.cap {
			t.full = true
		}
		return
	}
	t.ring[t.next] = rec
	t.next = (t.next + 1) % t.cap
	t.evicted++
}

// Completed returns a copy of the retained spans, oldest first. Safe on a
// nil tracer (returns nil).
func (t *Tracer) Completed() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, len(t.ring))
	if t.full {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

// Evicted reports how many completed spans have fallen off the ring.
func (t *Tracer) Evicted() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evicted
}

// WriteJSONL writes the retained spans, one JSON object per line, oldest
// first — the -trace-json export format.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w) // Encode appends the newline
	for _, rec := range t.Completed() {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// Span is one live (not yet ended) operation. All methods are safe on a
// nil span and safe for concurrent use; after End further mutation is
// ignored.
type Span struct {
	t *Tracer

	mu    sync.Mutex
	rec   SpanRecord
	ended bool
}

// Child begins a sub-span. Children of a nil span are nil (no-op), so call
// chains need no checks.
func (s *Span) Child(name string) *Span { return s.ChildAt(name, time.Now()) }

// ChildAt is Child with an explicit start time.
func (s *Span) ChildAt(name string, start time.Time) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	trace, parent := s.rec.TraceID, s.rec.SpanID
	t := s.t
	s.mu.Unlock()
	return &Span{
		t: t,
		rec: SpanRecord{
			TraceID:  trace,
			SpanID:   t.ids.Add(1),
			ParentID: parent,
			Name:     name,
			StartNS:  start.UnixNano(),
		},
	}
}

// ID returns the span's ID (zero on nil).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.rec.SpanID
}

// TraceID returns the ID of the trace's root span (zero on nil).
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.rec.TraceID
}

// setAttr stores one attribute value.
func (s *Span) setAttr(k string, v any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if s.rec.Attrs == nil {
		s.rec.Attrs = make(map[string]any, 4)
	}
	s.rec.Attrs[k] = v
}

// SetInt sets an integer attribute.
func (s *Span) SetInt(k string, v int64) { s.setAttr(k, v) }

// SetStr sets a string attribute.
func (s *Span) SetStr(k, v string) { s.setAttr(k, v) }

// SetBool sets a boolean attribute.
func (s *Span) SetBool(k string, v bool) { s.setAttr(k, v) }

// SetError marks the span failed. A nil error is ignored, so deferred
// `sp.SetError(err)` on a named return needs no branch.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.rec.Error = err.Error()
	}
}

// End completes the span and pushes its record into the tracer's ring.
// Ending twice is a no-op.
func (s *Span) End() { s.EndAt(time.Now()) }

// EndAt is End with an explicit end time.
func (s *Span) EndAt(end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.rec.EndNS = end.UnixNano()
	rec := s.rec
	if rec.Attrs != nil {
		attrs := make(map[string]any, len(rec.Attrs))
		for k, v := range rec.Attrs {
			attrs[k] = v
		}
		rec.Attrs = attrs
	}
	t := s.t
	s.mu.Unlock()
	t.push(rec)
}

// --- context plumbing ---

// spanCtxKey keys the current span in a context.
type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying sp, so layers that only see a
// context (the transport client under an ocall handler) can parent their
// spans correctly.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// ReadJSONL parses span records from a JSONL stream (the WriteJSONL /
// -trace-json format). Blank lines are skipped; a malformed line aborts
// with an error naming its position. Merging exports from two processes is
// just reading both and appending — IDs stay distinct because every tracer
// allocates from its own random base.
func ReadJSONL(r io.Reader) ([]SpanRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	var out []SpanRecord
	line := 0
	for sc.Scan() {
		line++
		b := strings.TrimSpace(sc.Text())
		if b == "" {
			continue
		}
		var rec SpanRecord
		if err := json.Unmarshal([]byte(b), &rec); err != nil {
			return out, fmt.Errorf("trace jsonl line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return out, err
	}
	return out, nil
}

// FilterTrace returns the records belonging to one trace, preserving
// order — the slice a flight recorder dumps for a failed restore.
func FilterTrace(recs []SpanRecord, traceID uint64) []SpanRecord {
	if traceID == 0 {
		return nil
	}
	var out []SpanRecord
	for _, r := range recs {
		if r.TraceID == traceID {
			out = append(out, r)
		}
	}
	return out
}

// --- rendering ---

// DurationsByName sums span durations per name across records — the
// per-phase accounting elide-run prints after a restore.
func DurationsByName(recs []SpanRecord) map[string]time.Duration {
	out := make(map[string]time.Duration, 8)
	for _, r := range recs {
		out[r.Name] += r.Duration()
	}
	return out
}

// RenderTree renders records as a compact one-line-per-span tree: children
// indented under their parents (two spaces per level), ordered by start
// time, with duration, attributes, and error status. Spans whose parent
// was evicted from the ring render as roots.
func RenderTree(recs []SpanRecord) string {
	byParent := make(map[uint64][]SpanRecord, len(recs))
	present := make(map[uint64]bool, len(recs))
	for _, r := range recs {
		present[r.SpanID] = true
	}
	var roots []SpanRecord
	for _, r := range recs {
		if r.ParentID != 0 && present[r.ParentID] {
			byParent[r.ParentID] = append(byParent[r.ParentID], r)
		} else {
			roots = append(roots, r)
		}
	}
	byStart := func(s []SpanRecord) {
		sort.SliceStable(s, func(i, j int) bool { return s[i].StartNS < s[j].StartNS })
	}
	byStart(roots)

	var b strings.Builder
	var walk func(r SpanRecord, depth int)
	walk = func(r SpanRecord, depth int) {
		indent := strings.Repeat("  ", depth)
		fmt.Fprintf(&b, "%-40s %12v", indent+r.Name, r.Duration().Round(time.Microsecond))
		if r.Svc != "" {
			fmt.Fprintf(&b, "  [%s]", r.Svc)
		}
		if keys := attrKeys(r.Attrs); len(keys) > 0 {
			for _, k := range keys {
				fmt.Fprintf(&b, "  %s=%v", k, r.Attrs[k])
			}
		}
		if r.Error != "" {
			fmt.Fprintf(&b, "  ERROR(%s)", r.Error)
		}
		b.WriteByte('\n')
		kids := byParent[r.SpanID]
		byStart(kids)
		for _, k := range kids {
			walk(k, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return b.String()
}

// attrKeys returns sorted attribute keys for deterministic rendering.
func attrKeys(m map[string]any) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
