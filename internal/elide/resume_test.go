package elide

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"sgxelide/internal/obs"
)

func testRecord(seed byte) ResumeRecord {
	return ResumeRecord{
		Binding:    testMr(seed),
		ServerPub:  bytes.Repeat([]byte{seed}, 32),
		ChannelKey: bytes.Repeat([]byte{seed ^ 0xFF}, 16),
		MrEnclave:  testMr(seed + 100),
	}
}

// TestLRUResumeStoreTTL: an entry past its expiry is dropped on lookup and
// reported as expired — distinctly from a plain miss — and stops counting
// toward Len.
func TestLRUResumeStoreTTL(t *testing.T) {
	now := time.Unix(1000, 0)
	st := newLRUResumeStore(4)
	st.now = func() time.Time { return now }

	rec := testRecord(1)
	rec.ExpiresAt = now.Add(time.Minute)
	st.Put(rec)
	forever := testRecord(2) // zero ExpiresAt: never expires
	st.Put(forever)

	if _, ok, expired := st.Get(rec.Binding); !ok || expired {
		t.Fatalf("fresh entry: ok=%v expired=%v", ok, expired)
	}
	now = now.Add(2 * time.Minute)
	if _, ok, expired := st.Get(rec.Binding); ok || !expired {
		t.Fatalf("stale entry: ok=%v expired=%v, want expired miss", ok, expired)
	}
	// Expiry removes the entry: the next lookup is a plain miss, and Len
	// no longer counts it.
	if _, ok, expired := st.Get(rec.Binding); ok || expired {
		t.Fatalf("post-expiry lookup: ok=%v expired=%v, want plain miss", ok, expired)
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d after expiry, want 1", st.Len())
	}
	if _, ok, _ := st.Get(forever.Binding); !ok {
		t.Fatal("zero-expiry entry must never expire")
	}
}

// TestResumeRecordMarshalRoundTrip: the wire layout round-trips every
// field, rejects unknown versions, and bounds the variable-length fields.
func TestResumeRecordMarshalRoundTrip(t *testing.T) {
	rec := testRecord(7)
	rec.ExpiresAt = time.Unix(0, 1234567890)
	blob, err := marshalResumeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := unmarshalResumeRecord(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Binding != rec.Binding || got.MrEnclave != rec.MrEnclave ||
		!bytes.Equal(got.ServerPub, rec.ServerPub) || !bytes.Equal(got.ChannelKey, rec.ChannelKey) ||
		!got.ExpiresAt.Equal(rec.ExpiresAt) {
		t.Fatalf("round trip mismatch: %+v != %+v", got, rec)
	}

	noExp := testRecord(8) // zero expiry must stay zero through the wire
	blob, err = marshalResumeRecord(noExp)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := unmarshalResumeRecord(blob); err != nil || !got.ExpiresAt.IsZero() {
		t.Fatalf("zero expiry round trip: %v, ExpiresAt=%v", err, got.ExpiresAt)
	}

	huge := testRecord(9)
	huge.ChannelKey = make([]byte, 300)
	if _, err := marshalResumeRecord(huge); err == nil {
		t.Fatal("oversized field must not marshal")
	}

	if _, err := unmarshalResumeRecord(blob[:10]); err == nil {
		t.Fatal("truncated record must not unmarshal")
	}
	bad := append([]byte(nil), blob...)
	bad[0] = 99
	if _, err := unmarshalResumeRecord(bad); err == nil {
		t.Fatal("unknown version must be rejected")
	}
}

// TestWrapResumeRecord: the fleet-key wrapping round-trips, and a
// bit-flipped blob, a wrong key, and an oversized blob all fail to open.
func TestWrapResumeRecord(t *testing.T) {
	key := bytes.Repeat([]byte{0x42}, 16)
	rec := testRecord(3)
	blob, err := wrapResumeRecord(key, rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := openResumeRecord(key, blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Binding != rec.Binding || !bytes.Equal(got.ChannelKey, rec.ChannelKey) {
		t.Fatal("wrap/open round trip mismatch")
	}

	for i := range blob { // every byte is authenticated
		tampered := append([]byte(nil), blob...)
		tampered[i] ^= 1
		if _, err := openResumeRecord(key, tampered); err == nil {
			t.Fatalf("tampered byte %d opened successfully", i)
		}
	}
	other := bytes.Repeat([]byte{0x43}, 16)
	if _, err := openResumeRecord(other, blob); err == nil {
		t.Fatal("wrong fleet key opened the record")
	}
	if _, err := openResumeRecord(key, make([]byte, 4096)); err == nil {
		t.Fatal("oversized blob must be rejected before decryption")
	}
}

// TestFleetKeyValidation: a fleet member must hold a valid fleet sealing
// key and advertise an address — replication without wrapping is a
// construction error, not a runtime downgrade.
func TestFleetKeyValidation(t *testing.T) {
	for _, n := range []int{16, 24, 32} {
		if err := validFleetKey(make([]byte, n)); err != nil {
			t.Fatalf("%d-byte key rejected: %v", n, err)
		}
	}
	for _, n := range []int{0, 8, 31} {
		if err := validFleetKey(make([]byte, n)); err == nil {
			t.Fatalf("%d-byte key accepted", n)
		}
	}
	meta, data := testMeta("s")
	st := NewSecretStore()
	if _, err := st.Register(testMr(1), meta, data, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMultiServer(mustCAPub(t), st, WithFleet(nil, "127.0.0.1:8", "127.0.0.1:9")); err == nil {
		t.Fatal("a fleet without a key must fail construction")
	}
	if _, err := NewMultiServer(mustCAPub(t), st, WithFleet(make([]byte, 32), "", "127.0.0.1:9")); err == nil {
		t.Fatal("a fleet member without an advertised address must fail construction")
	}
}

// TestServerResumeTTL: a session older than the resume TTL pays a full
// re-attest (fresh server key), the expiry is audited as AuditResumeExpired,
// and within the TTL the same handshake resumes the original channel.
func TestServerResumeTTL(t *testing.T) {
	if testing.Short() {
		t.Skip("enclave quote generation in -short")
	}
	ca, h := env(t)
	p := buildApp(t, h, SanitizeOptions{})
	encl := loadQuoteOnly(t, h, p)
	q, pub := freshQuote(t, h, encl)

	metrics := obs.NewRegistry()
	audit := obs.NewAuditLog(0)
	srv, err := p.NewServerFor(ca,
		WithResumeTTL(30*time.Millisecond),
		WithServerMetrics(metrics),
		WithServerAudit(audit),
	)
	if err != nil {
		t.Fatal(err)
	}

	pub0, err := srv.NewSession().Attest(q, pub)
	if err != nil {
		t.Fatal(err)
	}
	pub1, err := srv.NewSession().Attest(q, pub) // within TTL: resumed
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pub0, pub1) {
		t.Fatal("replay within the TTL did not resume the channel")
	}
	time.Sleep(60 * time.Millisecond)
	pub2, err := srv.NewSession().Attest(q, pub) // past TTL: full re-attest
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(pub0, pub2) {
		t.Fatal("replay past the TTL resumed an expired channel")
	}
	if got := metrics.Counter("server.resume_expired").Load(); got != 1 {
		t.Fatalf("server.resume_expired = %d, want 1", got)
	}
	if got := audit.Counts()[obs.AuditResumeExpired]; got != 1 {
		t.Fatalf("audit resume_expired events = %d, want 1", got)
	}
}

// TestWriteOverloadFrameSubMillisecond is the regression test for the
// truncated retry-after hint: a positive sub-millisecond hint must reach
// the client as >= 1ms, not as "retry immediately".
func TestWriteOverloadFrameSubMillisecond(t *testing.T) {
	read := func(retryAfter time.Duration) time.Duration {
		t.Helper()
		var buf bytes.Buffer
		if err := writeOverloadFrame(&buf, retryAfter, "busy"); err != nil {
			t.Fatal(err)
		}
		_, err := readResponse(&buf)
		var oe *OverloadedError
		if !errors.As(err, &oe) {
			t.Fatalf("readResponse = %v, want *OverloadedError", err)
		}
		return oe.RetryAfter
	}
	if got := read(200 * time.Microsecond); got != time.Millisecond {
		t.Fatalf("sub-ms hint decoded as %v, want 1ms", got)
	}
	if got := read(0); got != 0 {
		t.Fatalf("zero hint decoded as %v, want 0", got)
	}
	if got := read(-time.Second); got != 0 {
		t.Fatalf("negative hint decoded as %v, want 0", got)
	}
	if got := read(7 * time.Millisecond); got != 7*time.Millisecond {
		t.Fatalf("7ms hint decoded as %v", got)
	}
}

// TestInflightRetryAfter: the occupancy-derived hint stays within
// [1ms, ioTimeout], scales with queue position, and never collapses to
// zero even before any service time has been observed.
func TestInflightRetryAfter(t *testing.T) {
	s := &Server{opt: serverOptions{maxInflight: 4, ioTimeout: time.Second}}
	for pos := 0; pos <= 70; pos += 7 {
		for _, est := range []float64{0, 4e6, 1e12} {
			hint := s.inflightRetryAfter(est, pos)
			if hint < time.Millisecond || hint > time.Second {
				t.Fatalf("hint(est=%v, pos=%d) = %v, outside [1ms, 1s]", est, pos, hint)
			}
		}
	}
	// With a known service time the hint grows with position (modulo
	// jitter: compare far-apart positions via their upper/lower bounds).
	// est 40ms over 4 slots = 10ms per slot; pos 1 < 1.5*10ms, pos 50
	// >= half of min(50*10ms, ioTimeout)/2 = 250ms.
	lo := s.inflightRetryAfter(40e6, 1)
	hi := s.inflightRetryAfter(40e6, 50)
	if lo >= 15*time.Millisecond {
		t.Fatalf("pos-1 hint %v above its jitter ceiling", lo)
	}
	if hi < 250*time.Millisecond {
		t.Fatalf("pos-50 hint %v below its jitter floor", hi)
	}
}

// TestOverloadRetryAfterHint: the retry policy waits out a server's
// retry-after hint when it exceeds the backoff, and clamps a hint to the
// backoff cap so a confused server cannot park the caller indefinitely.
func TestOverloadRetryAfterHint(t *testing.T) {
	p := retryPolicy{budget: 1, base: time.Microsecond, cap: 20 * time.Millisecond}
	shedOnce := func(hint time.Duration) func(context.Context) ([]byte, error) {
		calls := 0
		return func(context.Context) ([]byte, error) {
			if calls++; calls == 1 {
				return nil, &PhaseError{Phase: "attest", Err: &OverloadedError{RetryAfter: hint}}
			}
			return []byte("ok"), nil
		}
	}
	start := time.Now()
	if _, err := p.run(context.Background(), nil, nil, "test", shedOnce(5*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited < 5*time.Millisecond {
		t.Fatalf("retried after %v, want >= the 5ms hint", waited)
	}
	start = time.Now()
	if _, err := p.run(context.Background(), nil, nil, "test", shedOnce(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited < p.cap || waited > time.Minute {
		t.Fatalf("an hour-long hint waited %v, want the %v cap", waited, p.cap)
	}
}
