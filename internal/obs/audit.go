// Security audit events: an append-only, schema-versioned wide-event
// stream recording every security-relevant decision the restore service
// makes — attestation verdicts with the measurement involved, resume cache
// hits and misses, QoS sheds with their retry-after hints, circuit-breaker
// transitions, degradations down the sealed/local chain, and torn-restore
// detections. Each event carries the trace ID of the restore that caused
// it, so an operator can pivot from an audit line to the full
// cross-process span tree (and back).
//
// Events live in a bounded in-memory ring (the `/audit` admin endpoint and
// the flight recorder read it) and optionally stream to a JSONL file sink
// with atomic size-based rotation. Like the rest of this package, every
// method is nil-safe so emit sites need no checks, and the ring-only emit
// path is allocation-bounded (see audit_alloc_test.go).
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
	"sync"
	"time"
)

// AuditSchema is the schema version stamped on every event. Readers must
// reject events whose schema they do not understand; fields are only ever
// added, never repurposed, within one version.
const AuditSchema = 1

// Audit event types. One constant per security-relevant decision; the
// per-type counters and the JSONL validator both key off these.
const (
	AuditAttestOK          = "attest_ok"           // attestation verified, channel established
	AuditAttestRefused     = "attest_refused"      // quote/measurement/binding rejected
	AuditResumeHit         = "resume_hit"          // session resumed from the quote-bound cache
	AuditResumeMiss        = "resume_miss"         // resumption attempted but not found / not bound
	AuditQoSShed           = "qos_shed"            // request shed by rate limit or in-flight cap
	AuditBreakerOpen       = "breaker_open"        // endpoint circuit breaker tripped open
	AuditBreakerClose      = "breaker_close"       // endpoint breaker closed after half-open probe
	AuditFailoverSwitch    = "failover_switch"     // client moved to a different replica
	AuditSessionLost       = "session_lost"        // replica switch hit a different server identity
	AuditDegradedLocal     = "degraded_local"      // restore fell back to the encrypted local file
	AuditSealedCorrupt     = "sealed_corrupt"      // sealed blob failed authentication
	AuditTornRestore       = "torn_restore"        // restored text hash mismatch inside the enclave
	AuditRestoreOK         = "restore_ok"          // a restore attempt chain ended in success
	AuditRestoreRetry      = "restore_retry"       // a retryable attempt failed; chain continues
	AuditRestoreFailed     = "restore_failed"      // terminal failure; flight recorder fires
	AuditStoreRescanFailed = "store_rescan_failed" // deployments-directory rescan could not read a deployment
	AuditResumeExpired     = "resume_expired"      // resume entry past its TTL; full re-attest required
	AuditResumeReplicated  = "resume_replicated"   // resume record accepted from a fleet peer

	// Fleet membership (DESIGN §15). Endpoint carries the member address
	// the transition is about; Detail carries the incarnation involved.
	AuditMemberJoin    = "member_join"       // a previously unknown member entered the mesh
	AuditMemberAlive   = "member_alive"      // a suspect/dead member came back (or refuted a suspicion)
	AuditMemberSuspect = "member_suspect"    // direct and indirect probes both failed
	AuditMemberDead    = "member_dead"       // suspicion expired unrefuted; member declared dead
	AuditAntiEntropy   = "anti_entropy_sync" // digest exchange adopted missing resume records

	// AuditResumeReplicationDropped reports push-queue overflow: fresh
	// channels are not reaching the fleet. Rate-limited to one event per
	// interval; Detail carries the cumulative drop count.
	AuditResumeReplicationDropped = "resume_replication_dropped"
)

// AuditEvent is one wide event. The struct is flat — no nested maps — so
// emitting into the ring copies a fixed-size value and allocates nothing.
// Zero-valued optional fields are elided from the JSONL encoding.
type AuditEvent struct {
	Schema       int    `json:"schema"`
	TimeNS       int64  `json:"time_ns"`
	Type         string `json:"type"`
	TraceID      uint64 `json:"trace,omitempty"`          // trace that caused the decision (0 = none)
	Enclave      string `json:"enclave,omitempty"`        // measurement label, mr_<hex8> suffix form
	Endpoint     string `json:"endpoint,omitempty"`       // server address involved, when any
	Detail       string `json:"detail,omitempty"`         // short free-text cause; never secret material
	Code         int64  `json:"code,omitempty"`           // restore return code, when any
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"` // shed hint, when any
}

// Time returns the event timestamp.
func (e AuditEvent) Time() time.Time { return time.Unix(0, e.TimeNS) }

// DefaultAuditRing is the ring capacity NewAuditLog(0) uses.
const DefaultAuditRing = 1024

// AuditLog is a bounded ring of recent events plus per-type counters and
// an optional JSONL file sink. Safe for concurrent use; all methods are
// safe on a nil *AuditLog (emit sites need no checks, and a process that
// never configures auditing pays one nil test per decision).
type AuditLog struct {
	mu      sync.Mutex
	ring    []AuditEvent // preallocated to cap
	next    int          // write cursor once full
	full    bool
	cap     int
	evicted uint64            // events pushed out of the ring
	counts  map[string]uint64 // emitted events per type
	reg     *Registry         // optional metric mirror: audit.events.<type>
	ctrs    map[string]*Counter

	sink     *os.File
	sinkPath string
	sinkSize int64 // bytes written to the current sink file
	maxBytes int64 // rotate threshold; 0 = never rotate
	sinkErrs uint64
	enc      *json.Encoder
	cw       *countingWriter
}

// NewAuditLog builds a log retaining up to ringCap events
// (DefaultAuditRing when ringCap <= 0).
func NewAuditLog(ringCap int) *AuditLog {
	if ringCap <= 0 {
		ringCap = DefaultAuditRing
	}
	return &AuditLog{
		ring:   make([]AuditEvent, 0, ringCap),
		cap:    ringCap,
		counts: make(map[string]uint64, 16),
	}
}

// SetRegistry mirrors per-type counts into reg as audit.events.<type>
// counters, so the exposition endpoints see audit volume without scraping
// the ring.
func (a *AuditLog) SetRegistry(reg *Registry) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.reg = reg
	a.ctrs = make(map[string]*Counter, 16)
	a.mu.Unlock()
}

// countingWriter tracks bytes written through it, so rotation does not
// need a Stat per event.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// SetFileSink streams every subsequent event to path as JSONL, appending
// to an existing file. When maxBytes > 0 and the file exceeds it, the file
// is atomically rotated to path+".1" (replacing any previous rotation) and
// a fresh file is started — the active path never disappears for more than
// a rename. Pass an empty path to detach the sink.
func (a *AuditLog) SetFileSink(path string, maxBytes int64) error {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.sink != nil {
		a.sink.Close()
		a.sink, a.enc, a.cw = nil, nil, nil
	}
	a.sinkPath, a.maxBytes, a.sinkSize = "", 0, 0
	if path == "" {
		return nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("audit sink: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("audit sink: %w", err)
	}
	a.sink = f
	a.sinkPath = path
	a.maxBytes = maxBytes
	a.sinkSize = st.Size()
	a.cw = &countingWriter{w: f}
	a.enc = json.NewEncoder(a.cw)
	return nil
}

// CloseSink detaches and closes the file sink, if any.
func (a *AuditLog) CloseSink() error {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.sink == nil {
		return nil
	}
	err := a.sink.Close()
	a.sink, a.enc, a.cw = nil, nil, nil
	a.sinkPath, a.maxBytes, a.sinkSize = "", 0, 0
	return err
}

// Emit records one event: Schema and TimeNS are stamped here, the ring and
// per-type counter are updated, and the file sink (when attached) gets one
// JSONL line. Sink write failures are counted, never propagated — audit
// must not take down the data path. Safe on a nil log.
func (a *AuditLog) Emit(ev AuditEvent) {
	if a == nil {
		return
	}
	ev.Schema = AuditSchema
	if ev.TimeNS == 0 {
		ev.TimeNS = time.Now().UnixNano()
	}
	a.mu.Lock()
	a.counts[ev.Type]++
	if a.reg != nil {
		c, ok := a.ctrs[ev.Type]
		if !ok {
			c = a.reg.Counter("audit.events." + ev.Type)
			a.ctrs[ev.Type] = c
		}
		c.Inc()
	}
	if !a.full {
		a.ring = append(a.ring, ev)
		if len(a.ring) == a.cap {
			a.full = true
		}
	} else {
		a.ring[a.next] = ev
		a.next = (a.next + 1) % a.cap
		a.evicted++
	}
	if a.enc != nil {
		before := a.cw.n
		if err := a.enc.Encode(ev); err != nil {
			a.sinkErrs++
		}
		a.sinkSize += a.cw.n - before
		if a.maxBytes > 0 && a.sinkSize >= a.maxBytes {
			a.rotateLocked()
		}
	}
	a.mu.Unlock()
}

// rotateLocked swaps the active sink file for a fresh one, keeping exactly
// one previous generation at path+".1". Called with a.mu held.
func (a *AuditLog) rotateLocked() {
	a.sink.Close()
	if err := os.Rename(a.sinkPath, a.sinkPath+".1"); err != nil {
		a.sinkErrs++
	}
	f, err := os.OpenFile(a.sinkPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		a.sinkErrs++
		a.sink, a.enc, a.cw = nil, nil, nil
		return
	}
	a.sink = f
	a.sinkSize = 0
	a.cw = &countingWriter{w: f}
	a.enc = json.NewEncoder(a.cw)
}

// Recent returns up to n retained events, oldest first (all retained when
// n <= 0). Safe on a nil log.
func (a *AuditLog) Recent(n int) []AuditEvent {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]AuditEvent, 0, len(a.ring))
	if a.full {
		out = append(out, a.ring[a.next:]...)
		out = append(out, a.ring[:a.next]...)
	} else {
		out = append(out, a.ring...)
	}
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// Counts returns a copy of the per-type emit counters.
func (a *AuditLog) Counts() map[string]uint64 {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]uint64, len(a.counts))
	for k, v := range a.counts {
		out[k] = v
	}
	return out
}

// Evicted reports how many events have fallen off the ring.
func (a *AuditLog) Evicted() uint64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.evicted
}

// SinkErrs reports how many file-sink writes or rotations failed.
func (a *AuditLog) SinkErrs() uint64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sinkErrs
}

// WriteJSONL writes the retained events, one JSON object per line, oldest
// first — the `/audit` endpoint body and the flight-recorder dump format.
func (a *AuditLog) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range a.Recent(0) {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// auditTypeRe is the shape every event type must have: lowercase snake
// identifiers, so downstream processors can treat types as enum keys.
var auditTypeRe = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// ValidateAuditJSONL checks that r is a well-formed audit stream: every
// non-blank line parses as an AuditEvent with the current schema version, a
// well-shaped type, and a positive timestamp. Returns the number of events
// validated; the error names the first offending line. This is the CI
// schema gate for emitted audit logs.
func ValidateAuditJSONL(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	n, line := 0, 0
	for sc.Scan() {
		line++
		b := strings.TrimSpace(sc.Text())
		if b == "" {
			continue
		}
		var ev AuditEvent
		if err := json.Unmarshal([]byte(b), &ev); err != nil {
			return n, fmt.Errorf("audit jsonl line %d: %w", line, err)
		}
		if ev.Schema != AuditSchema {
			return n, fmt.Errorf("audit jsonl line %d: schema %d, want %d", line, ev.Schema, AuditSchema)
		}
		if !auditTypeRe.MatchString(ev.Type) {
			return n, fmt.Errorf("audit jsonl line %d: malformed type %q", line, ev.Type)
		}
		if ev.TimeNS <= 0 {
			return n, fmt.Errorf("audit jsonl line %d: missing timestamp", line)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return n, err
	}
	return n, nil
}
