package elide

import (
	"context"
	"crypto/sha256"
	"errors"
	"net"
	"testing"
	"time"

	"sgxelide/internal/obs"
	"sgxelide/internal/sdk"
	"sgxelide/internal/sgx"
)

// startTracedServer serves p's secrets over TCP with metrics and tracing
// and returns the address plus both registries.
func startTracedServer(t *testing.T, p *Protected, ca *sgx.CA) (string, *obs.Registry, *obs.Tracer) {
	t.Helper()
	metrics := obs.NewRegistry()
	tracer := obs.NewTracer(0)
	srv, err := p.NewServerFor(ca, WithServerMetrics(metrics), WithServerTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	l := listen(t)
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, l) }()
	t.Cleanup(func() {
		cancel()
		<-served
	})
	return l.Addr().String(), metrics, tracer
}

// TestPipelinedRestoreSingleFlight is the tentpole's end-to-end claim: a
// ProtoV1 client completes a full enclave restore in ONE network flight —
// the attest reply carries the encrypted metadata and data, and the two
// channel requests are served from the bundle without touching the wire.
// The span trees on both sides must still show the paper's protocol
// order: attest, then request_meta, then request_data.
func TestPipelinedRestoreSingleFlight(t *testing.T) {
	ca, h := env(t)
	tracer := obs.NewTracer(0)
	h.Tracer = tracer
	h.Metrics = obs.NewRegistry()
	p := buildApp(t, h, SanitizeOptions{})
	addr, serverMetrics, serverTracer := startTracedServer(t, p, ca)

	clientMetrics := obs.NewRegistry()
	opts := append(fastRetry(2),
		WithProtocolVersion(ProtoV1),
		WithClientMetrics(clientMetrics),
		WithClientTracer(tracer),
	)
	client := NewTCPClient(addr, opts...)
	defer client.Close()
	encl, rt, err := p.Launch(h, client, p.LocalFiles())
	if err != nil {
		t.Fatal(err)
	}
	defer encl.Destroy()
	code, err := encl.ECall("elide_restore", 0)
	if err != nil || code != RestoreOKServer {
		t.Fatalf("restore = %d, %v (runtime: %v)", code, err, rt.Errs())
	}

	// One wire flight, both channel requests answered from the bundle.
	if got := clientMetrics.Counter("client.flights").Load(); got != 1 {
		t.Errorf("client.flights = %d, want 1", got)
	}
	if got := clientMetrics.Counter("client.bundle_hits").Load(); got != 2 {
		t.Errorf("client.bundle_hits = %d, want 2", got)
	}
	if got := clientMetrics.Counter("client.bundled_attests").Load(); got != 1 {
		t.Errorf("client.bundled_attests = %d, want 1", got)
	}
	if got := serverMetrics.Counter("server.bundles_served").Load(); got != 1 {
		t.Errorf("server.bundles_served = %d, want 1", got)
	}

	// Client-side protocol order is unchanged: attest strictly before
	// request_meta strictly before request_data, in one trace.
	recs := tracer.Completed()
	attest, ok1 := phaseRecord(recs, "attest")
	meta, ok2 := phaseRecord(recs, "request_meta")
	data, ok3 := phaseRecord(recs, "request_data")
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("missing protocol phase spans (attest=%v meta=%v data=%v)", ok1, ok2, ok3)
	}
	if attest.TraceID != meta.TraceID || meta.TraceID != data.TraceID {
		t.Error("protocol phases landed in different traces")
	}
	if !(attest.EndNS <= meta.StartNS && meta.EndNS <= data.StartNS) {
		t.Errorf("protocol phases out of order: attest[%d,%d] meta[%d,%d] data[%d,%d]",
			attest.StartNS, attest.EndNS, meta.StartNS, meta.EndNS, data.StartNS, data.EndNS)
	}

	// Server-side: the whole exchange is ONE session span whose children
	// are the attest and the bundle; the bundle nests request_meta and
	// request_data; no standalone per-request spans (nothing arrived on
	// the wire after the handshake). The session span ends when the
	// connection does, so close the client and wait for it to land.
	client.Close()
	var srecs []obs.SpanRecord
	var session obs.SpanRecord
	var ok bool
	deadline := time.Now().Add(5 * time.Second)
	for {
		srecs = serverTracer.Completed()
		if session, ok = phaseRecord(srecs, "session"); ok || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !ok {
		t.Fatal("no server session span")
	}
	children := map[string]obs.SpanRecord{}
	for _, r := range srecs {
		if r.TraceID == session.TraceID && r.Name != "session" {
			children[r.Name] = r
		}
	}
	bundle, ok := children["bundle"]
	if !ok {
		t.Fatal("no bundle span under the session")
	}
	for _, name := range []string{"request_meta", "request_data"} {
		r, ok := children[name]
		if !ok {
			t.Fatalf("no %s span under the session trace", name)
		}
		if r.ParentID != bundle.SpanID {
			t.Errorf("%s span parent is %d, want the bundle span %d", name, r.ParentID, bundle.SpanID)
		}
	}
	if _, ok := children["request"]; ok {
		t.Error("server recorded a wire request span; pipelined restore should not send any")
	}
}

// TestLegacyClientAgainstV1Server: a client built with no protocol option,
// the way every caller but elide-run used to build one, gets the bundled
// exchange — the whole restore in one flight, served from one bundle.
func TestLegacyClientAgainstV1Server(t *testing.T) {
	ca, h := env(t)
	h.Metrics = obs.NewRegistry()
	p := buildApp(t, h, SanitizeOptions{})
	addr, serverMetrics, _ := startTracedServer(t, p, ca)

	clientMetrics := obs.NewRegistry()
	client := NewTCPClient(addr, append(fastRetry(2), WithClientMetrics(clientMetrics))...)
	defer client.Close()
	encl, rt, err := p.Launch(h, client, p.LocalFiles())
	if err != nil {
		t.Fatal(err)
	}
	defer encl.Destroy()
	code, err := encl.ECall("elide_restore", 0)
	if err != nil || code != RestoreOKServer {
		t.Fatalf("restore = %d, %v (runtime: %v)", code, err, rt.Errs())
	}
	if got := serverMetrics.Counter("server.bundles_served").Load(); got != 1 {
		t.Errorf("server.bundles_served = %d for a default client, want 1", got)
	}
	if got := clientMetrics.Counter("client.flights").Load(); got != 1 {
		t.Errorf("client.flights = %d, want 1", got)
	}
	if got := serverMetrics.Counter("server.requests").Load(); got != 0 {
		t.Errorf("server.requests = %d, want 0 (both requests served from the bundle)", got)
	}
}

// loadQuoteOnly loads p's sanitized enclave just far enough to mint
// platform-signed quotes for its measurement.
func loadQuoteOnly(t *testing.T, h *sdk.Host, p *Protected) *sdk.Enclave {
	t.Helper()
	rt := &Runtime{Client: deadClient{}, Files: &FileStore{}}
	rt.Install(h)
	encl, err := h.CreateEnclave(p.SanitizedELF, p.SigStruct, p.EDL)
	if err != nil {
		t.Fatal(err)
	}
	return encl
}

// freshQuote mints a quote for encl binding a fresh ECDH keypair.
func freshQuote(t *testing.T, h *sdk.Host, encl *sdk.Enclave) (*sgx.Quote, []byte) {
	t.Helper()
	_, pub, err := sdk.GenerateECDHKeypair()
	if err != nil {
		t.Fatal(err)
	}
	var rdata [sgx.ReportDataSize]byte
	binding := sha256.Sum256(pub)
	copy(rdata[:], binding[:])
	report, err := h.Platform.EReport(encl.Encl, sgx.QETargetInfo(), rdata)
	if err != nil {
		t.Fatal(err)
	}
	quote, err := h.Platform.QuoteReport(report)
	if err != nil {
		t.Fatal(err)
	}
	return quote, pub
}

// TestOverloadIsolation: per-enclave QoS is PER ENCLAVE — hammering one
// enclave's attest rate limit sheds that enclave's clients with a typed
// ErrOverloaded (carrying a retry-after hint over the wire) while another
// enclave registered on the same server attests untouched.
func TestOverloadIsolation(t *testing.T) {
	ca, h := env(t)
	pA := buildApp(t, h, SanitizeOptions{})
	pB := buildApp2(t, h, SanitizeOptions{})
	enclA := loadQuoteOnly(t, h, pA)
	enclB := loadQuoteOnly(t, h, pB)

	store := NewSecretStore()
	registerProtected(t, store, pA, "app-a")
	registerProtected(t, store, pB, "app-b")
	metrics := obs.NewRegistry()
	srv, err := NewMultiServer(ca.PublicKey(), store,
		WithServerMetrics(metrics),
		WithEnclaveRateLimit(0.001, 2), // 2 attests of burst, then ~nothing
	)
	if err != nil {
		t.Fatal(err)
	}
	l := listen(t)
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, l) }()
	defer func() {
		cancel()
		<-served
	}()

	attest := func(encl *sdk.Enclave) error {
		quote, pub := freshQuote(t, h, encl)
		client := NewTCPClient(l.Addr().String(), fastRetry(1)...)
		defer client.Close()
		_, err := client.Attest(context.Background(), quote, pub)
		return err
	}

	// Burn enclave A's burst, then its next fresh attest must shed.
	var overloadErr error
	for i := 0; i < 4; i++ {
		if err := attest(enclA); err != nil {
			overloadErr = err
			break
		}
	}
	if overloadErr == nil {
		t.Fatal("enclave A was never rate limited")
	}
	if !errors.Is(overloadErr, ErrOverloaded) {
		t.Fatalf("rate-limited attest returned %v, want ErrOverloaded", overloadErr)
	}
	var oe *OverloadedError
	if !errors.As(overloadErr, &oe) {
		t.Fatalf("overload error lost its type over the wire: %v", overloadErr)
	}
	if oe.RetryAfter <= 0 {
		t.Errorf("overload retry-after hint = %v, want > 0", oe.RetryAfter)
	}

	// Enclave B shares the server but not the bucket.
	if err := attest(enclB); err != nil {
		t.Fatalf("enclave B was shed by enclave A's rate limit: %v", err)
	}
	if got := metrics.Counter("server.overload.rate_limited").Load(); got == 0 {
		t.Error("server.overload.rate_limited counter never moved")
	}
	if got := metrics.Counter("server.overload.rate_limited.mr_app-b").Load(); got != 0 {
		t.Errorf("enclave B recorded %d rate-limit sheds, want 0", got)
	}
}

// TestInflightLimitSheds drives the in-flight semaphore directly: with a
// cap of 1, a second concurrent channel request against the same enclave
// is shed with a typed overload, and the release function restores the
// slot.
func TestInflightLimitSheds(t *testing.T) {
	ca, h := env(t)
	p := buildApp(t, h, SanitizeOptions{})
	metrics := obs.NewRegistry()
	srv, err := p.NewServerFor(ca, WithServerMetrics(metrics), WithEnclaveInflightLimit(1))
	if err != nil {
		t.Fatal(err)
	}
	entry, ok := srv.Store().Lookup(p.Measurement)
	if !ok {
		t.Fatal("deployment entry missing")
	}
	release1, err := srv.admitInflight(entry)
	if err != nil {
		t.Fatalf("first in-flight request shed: %v", err)
	}
	if _, err := srv.admitInflight(entry); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second concurrent request: got %v, want ErrOverloaded", err)
	}
	release1()
	release2, err := srv.admitInflight(entry)
	if err != nil {
		t.Fatalf("request after release shed: %v", err)
	}
	release2()
	if got := metrics.Counter("server.overload.inflight").Load(); got != 1 {
		t.Errorf("server.overload.inflight = %d, want 1", got)
	}
	if got := metrics.Gauge("server.inflight.mr_" + entry.Label()).Load(); got != 0 {
		t.Errorf("in-flight gauge = %d after releases, want 0", got)
	}
}

// TestFailoverSurfacesTypedOverload: when EVERY replica sheds, the
// failover pool must surface the typed overload (so RestoreResilient
// classifies the run retryable and backs off) rather than flattening it
// into a generic unavailable error — and the shedding endpoints must be
// counted, not circuit-broken, because an overloaded server is healthy.
func TestFailoverSurfacesTypedOverload(t *testing.T) {
	shedding := func() net.Listener {
		l := listen(t)
		serveWire(t, l, func(i int, conn net.Conn) {
			if _, err := readHandshake(conn); err != nil {
				return
			}
			writeOverloadFrame(conn, 2*time.Millisecond, "all replicas busy")
		})
		return l
	}
	l0, l1 := shedding(), shedding()
	metrics := obs.NewRegistry()
	fc, err := NewFailoverClient([]string{l0.Addr().String(), l1.Addr().String()},
		WithFailoverMetrics(metrics),
		WithEndpointClientOptions(fastRetry(1)...),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	_, pub, err := sdk.GenerateECDHKeypair()
	if err != nil {
		t.Fatal(err)
	}
	_, aerr := fc.Attest(context.Background(), &sgx.Quote{}, pub)
	if !errors.Is(aerr, ErrOverloaded) {
		t.Fatalf("pool-wide shed returned %v, want ErrOverloaded", aerr)
	}
	var oe *OverloadedError
	if !errors.As(aerr, &oe) {
		t.Fatalf("failover flattened the overload type: %v", aerr)
	}
	if got := metrics.Counter("failover.overloaded").Load(); got < 2 {
		t.Errorf("failover.overloaded = %d, want >= 2 (both replicas shed)", got)
	}
}

// TestOverloadDelaysRetry: the transport retry loop must treat an
// overload answer as "come back after the hint", not as a transient to
// hammer: with a budget of 2 and a shedding-then-healthy scripted server,
// the client succeeds on the second try and the overload is counted.
func TestOverloadDelaysRetry(t *testing.T) {
	l := listen(t)
	serveWire(t, l, func(i int, conn net.Conn) {
		if _, err := readHandshake(conn); err != nil {
			return
		}
		if i == 0 {
			writeOverloadFrame(conn, 5*time.Millisecond, "attest rate limit")
			return
		}
		_, pub, err := sdk.GenerateECDHKeypair()
		if err != nil {
			t.Error(err)
			return
		}
		writeResponse(conn, marshalAttestReply(pub, nil, nil))
	})
	metrics := obs.NewRegistry()
	client := NewTCPClient(l.Addr().String(), append(fastRetry(2), WithClientMetrics(metrics))...)
	defer client.Close()
	_, pub, err := sdk.GenerateECDHKeypair()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := client.Attest(context.Background(), &sgx.Quote{}, pub); err != nil {
		t.Fatalf("attest after overload retry: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Errorf("retry after %v, want >= the server's 5ms retry-after hint", elapsed)
	}
	if got := metrics.Counter("client.attest_overloaded").Load(); got != 1 {
		t.Errorf("client.attest_overloaded = %d, want 1", got)
	}
}
