package elide

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"sgxelide/internal/obs"
)

// serveOn runs srv on an already-created listener (replication tests need
// every peer's address before any server is constructed).
func serveOn(t *testing.T, srv *Server, l net.Listener) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, l) }()
	t.Cleanup(func() {
		cancel()
		<-served
	})
}

// waitCounter polls a registry counter until it reaches min; replication
// is asynchronous by design, so tests synchronize on its counters.
func waitCounter(t *testing.T, m *obs.Registry, name string, min uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m.Counter(name).Load() >= min {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("counter %s never reached %d (have %d)", name, min, m.Counter(name).Load())
}

func v1Client(addr string) *TCPClient {
	return NewTCPClient(addr, append(fastRetry(2), WithProtocolVersion(ProtoV1))...)
}

// TestResumeReplicationPush: a channel established on one replica is
// pushed to its peer, and the peer then resumes the session locally —
// same server key, zero attestation flights on the peer.
func TestResumeReplicationPush(t *testing.T) {
	if testing.Short() {
		t.Skip("enclave quote generation in -short")
	}
	ca, h := env(t)
	p := buildApp(t, h, SanitizeOptions{})
	l0, l1 := listen(t), listen(t)
	addr0, addr1 := l0.Addr().String(), l1.Addr().String()
	key := bytes.Repeat([]byte{0x5A}, 32)
	m0, m1 := obs.NewRegistry(), obs.NewRegistry()

	srv0, err := p.NewServerFor(ca, WithDrainTimeout(50*time.Millisecond),
		WithServerMetrics(m0), WithFleet(key, addr0, addr1))
	if err != nil {
		t.Fatal(err)
	}
	// srv1 is the first member: it has no seeds.
	srv1, err := p.NewServerFor(ca, WithDrainTimeout(50*time.Millisecond),
		WithServerMetrics(m1), WithFleet(key, addr1))
	if err != nil {
		t.Fatal(err)
	}
	serveOn(t, srv0, l0)
	serveOn(t, srv1, l1)

	encl := loadQuoteOnly(t, h, p)
	q, cpub := freshQuote(t, h, encl)
	ctx := context.Background()

	pub0, err := v1Client(l0.Addr().String()).Attest(ctx, q, cpub)
	if err != nil {
		t.Fatal(err)
	}
	waitCounter(t, m1, "server.resume_replicated", 1)

	pub1, err := v1Client(l1.Addr().String()).ResumeAttest(ctx, q, cpub)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pub0, pub1) {
		t.Fatal("peer resumed with a different server key; the channel is lost")
	}
	if got := m1.Counter("server.attest_resumed").Load(); got < 1 {
		t.Fatalf("peer attest_resumed = %d, want >= 1", got)
	}
	if got := m1.Counter("server.attest_ok").Load(); got != 0 {
		t.Fatalf("peer ran %d full attestation flights, want 0", got)
	}
}

// TestResumeFetchFallback: when the push never reached the replica (here:
// the origin has no seeds and, with an hour-long gossip interval, never
// learns of the replica), a replayed handshake triggers a synchronous
// peer fetch and still resumes with zero extra attestation flights.
func TestResumeFetchFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("enclave quote generation in -short")
	}
	ca, h := env(t)
	p := buildApp(t, h, SanitizeOptions{})
	l0, l1 := listen(t), listen(t)
	addr0, addr1 := l0.Addr().String(), l1.Addr().String()
	key := bytes.Repeat([]byte{0x6C}, 16)
	m0, m1 := obs.NewRegistry(), obs.NewRegistry()

	// srv0 holds the session but pushes nowhere; srv1 can neither
	// introduce itself nor run anti-entropy, so it can only fetch.
	srv0, err := p.NewServerFor(ca, WithDrainTimeout(50*time.Millisecond),
		WithServerMetrics(m0), WithFleet(key, addr0), WithGossipInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := p.NewServerFor(ca, WithDrainTimeout(50*time.Millisecond),
		WithServerMetrics(m1), WithFleet(key, addr1, addr0), WithGossipInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	serveOn(t, srv0, l0)
	serveOn(t, srv1, l1)

	encl := loadQuoteOnly(t, h, p)
	q, cpub := freshQuote(t, h, encl)
	ctx := context.Background()

	pub0, err := v1Client(l0.Addr().String()).Attest(ctx, q, cpub)
	if err != nil {
		t.Fatal(err)
	}
	pub1, err := v1Client(l1.Addr().String()).ResumeAttest(ctx, q, cpub)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pub0, pub1) {
		t.Fatal("fetched resume returned a different server key")
	}
	if got := m1.Counter("server.resume_fetch_hit").Load(); got != 1 {
		t.Fatalf("resume_fetch_hit = %d, want 1", got)
	}
	if got := m1.Counter("server.attest_ok").Load(); got != 0 {
		t.Fatalf("replica ran %d full attestation flights, want 0", got)
	}
	if got := m0.Counter("server.resume_fetch_served").Load(); got != 1 {
		t.Fatalf("origin resume_fetch_served = %d, want 1", got)
	}

	// The fetched record was adopted locally: a second replay resumes
	// without another peer round trip.
	if _, err := v1Client(l1.Addr().String()).ResumeAttest(ctx, q, cpub); err != nil {
		t.Fatal(err)
	}
	if got := m1.Counter("server.resume_fetch").Load(); got != 1 {
		t.Fatalf("second replay fetched again (resume_fetch = %d, want 1)", got)
	}
}

// TestResumeLegacyPeerUnaffected: seeding a fleet member with a server
// that has no fleet key (so it refuses the peer-link handshake) must not
// disturb that server's client traffic; the dialer counts the refusal as
// a replication error and moves on. The member's hour-long gossip
// interval keeps the seed a push target: no probe retires it first.
func TestResumeLegacyPeerUnaffected(t *testing.T) {
	if testing.Short() {
		t.Skip("enclave quote generation in -short")
	}
	ca, h := env(t)
	p := buildApp(t, h, SanitizeOptions{})
	l0, l1 := listen(t), listen(t)
	key := bytes.Repeat([]byte{0x7D}, 32)
	m0, m1 := obs.NewRegistry(), obs.NewRegistry()

	srv0, err := p.NewServerFor(ca, WithDrainTimeout(50*time.Millisecond),
		WithServerMetrics(m0)) // no fleet key: refuses replication links
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := p.NewServerFor(ca, WithDrainTimeout(50*time.Millisecond),
		WithServerMetrics(m1), WithFleet(key, l1.Addr().String(), l0.Addr().String()),
		WithGossipInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	serveOn(t, srv0, l0)
	serveOn(t, srv1, l1)

	encl := loadQuoteOnly(t, h, p)
	ctx := context.Background()

	q1, cpub1 := freshQuote(t, h, encl)
	if _, err := v1Client(l1.Addr().String()).Attest(ctx, q1, cpub1); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, m1, "server.resume_replicate_errors", 1)

	// The refusing server still serves ordinary clients.
	q0, cpub0 := freshQuote(t, h, encl)
	if _, err := v1Client(l0.Addr().String()).Attest(ctx, q0, cpub0); err != nil {
		t.Fatalf("keyless peer's client traffic broken by replication attempts: %v", err)
	}
	if got := m0.Counter("server.attest_ok").Load(); got != 1 {
		t.Fatalf("keyless peer attest_ok = %d, want 1", got)
	}
	if got := m1.Counter("server.resume_replicated").Load(); got != 0 {
		t.Fatalf("record replicated to a keyless peer (%d)", got)
	}
}
