package elide

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"sgxelide/internal/obs"
	"sgxelide/internal/sgx"
)

// errDown is the failure the breaker tests record.
var errDown = errors.New("down")

// fakeEndpoint is a scriptable per-endpoint Client for pool tests.
type fakeEndpoint struct {
	mu       sync.Mutex
	pub      []byte // returned by Attest when up
	down     bool
	attests  int
	requests int
	onReq    func(n int) error // overrides the request outcome for call n (1-based)
}

func (f *fakeEndpoint) Attest(_ context.Context, _ *sgx.Quote, _ []byte) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.attests++
	if f.down {
		return nil, &unavailableError{attempts: 1, last: errors.New("dial refused")}
	}
	return append([]byte(nil), f.pub...), nil
}

func (f *fakeEndpoint) Request(_ context.Context, _ []byte) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.requests++
	if f.onReq != nil {
		if err := f.onReq(f.requests); err != nil {
			return nil, err
		}
	} else if f.down {
		return nil, &unavailableError{attempts: 1, last: errors.New("dial refused")}
	}
	return []byte("ok"), nil
}

func (f *fakeEndpoint) Close() error { return nil }

func (f *fakeEndpoint) setDown(d bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.down = d
}

// newFakePool wires a FailoverClient over fake endpoints keyed "ep0",
// "ep1", ... with a tight breaker for tests.
func newFakePool(t *testing.T, eps []*fakeEndpoint, extra ...FailoverOption) (*FailoverClient, *obs.Registry) {
	t.Helper()
	metrics := obs.NewRegistry()
	addrs := make([]string, len(eps))
	byAddr := map[string]*fakeEndpoint{}
	for i, e := range eps {
		addrs[i] = "ep" + string(rune('0'+i))
		byAddr[addrs[i]] = e
	}
	opts := append([]FailoverOption{
		WithFailoverMetrics(metrics),
		WithBreakerThreshold(2),
		WithBreakerCooldown(20 * time.Millisecond),
		WithClientFactory(func(addr string) SecretChannel { return byAddr[addr] }),
	}, extra...)
	fc, err := NewFailoverClient(addrs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return fc, metrics
}

// TestBreakerStateMachine walks one endpoint through closed → open →
// half-open → closed and the failed-probe edge.
func TestBreakerStateMachine(t *testing.T) {
	pool := NewEndpointPool([]string{"a"},
		WithBreakerThreshold(2), WithBreakerCooldown(15*time.Millisecond))
	ep := pool.endpoints[0]

	if got := pool.pick(nil); got != ep {
		t.Fatal("closed endpoint not picked")
	}
	pool.record(ep, errDown, time.Millisecond)
	if ep.State() != BreakerClosed {
		t.Fatal("one failure tripped a threshold-2 breaker")
	}
	pool.record(ep, errDown, time.Millisecond)
	if ep.State() != BreakerOpen {
		t.Fatal("threshold failures did not trip the breaker")
	}
	if got := pool.pick(nil); got != nil {
		t.Fatal("open endpoint picked before cooldown")
	}

	time.Sleep(20 * time.Millisecond)
	probe := pool.pick(nil)
	if probe != ep || ep.State() != BreakerHalfOpen {
		t.Fatalf("cooldown expired but no half-open probe (state %d)", ep.State())
	}
	// Only one probe at a time.
	if got := pool.pick(nil); got != nil {
		t.Fatal("second probe admitted while one is in flight")
	}
	// Failed probe: straight back to open.
	pool.record(ep, errDown, time.Millisecond)
	if ep.State() != BreakerOpen {
		t.Fatal("failed probe did not reopen the breaker")
	}

	time.Sleep(20 * time.Millisecond)
	if got := pool.pick(nil); got != ep {
		t.Fatal("no second probe after the fresh cooldown")
	}
	pool.record(ep, nil, time.Millisecond)
	if ep.State() != BreakerClosed {
		t.Fatal("successful probe did not close the breaker")
	}
	if h := ep.Health(); h <= 0 || h > 1 {
		t.Fatalf("health EWMA out of range: %v", h)
	}
}

// TestPoolPickPrefersHealth: the pool ranks closed endpoints by success
// EWMA, so a flaky endpoint loses the election to a clean one.
func TestPoolPickPrefersHealth(t *testing.T) {
	pool := NewEndpointPool([]string{"a", "b"}, WithBreakerThreshold(10))
	a, b := pool.endpoints[0], pool.endpoints[1]
	pool.record(a, errDown, time.Millisecond) // a: health 0.7
	pool.record(b, nil, time.Millisecond)     // b: health 1.0
	if got := pool.pick(nil); got != b {
		t.Fatalf("picked %q, want the healthier %q", got.Addr, b.Addr)
	}
	if got := pool.pick(map[*Endpoint]bool{b: true}); got != a {
		t.Fatal("exclusion not honoured")
	}
}

// TestFailoverAttest: the first endpoint is down; Attest lands on the
// replica and later Requests run there.
func TestFailoverAttest(t *testing.T) {
	ep0 := &fakeEndpoint{pub: []byte("pub0"), down: true}
	ep1 := &fakeEndpoint{pub: []byte("pub1")}
	fc, _ := newFakePool(t, []*fakeEndpoint{ep0, ep1})

	pub, err := fc.Attest(context.Background(), &sgx.Quote{}, []byte("cpub"))
	if err != nil {
		t.Fatal(err)
	}
	if string(pub) != "pub1" {
		t.Fatalf("attested to %q, want pub1", pub)
	}
	if _, err := fc.Request(context.Background(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if ep1.requests != 1 || ep0.requests != 0 {
		t.Fatalf("request routed wrong: ep0=%d ep1=%d", ep0.requests, ep1.requests)
	}
}

// TestFailoverAttestRefusalTerminal: a refusal is the server's answer, not
// an outage — no replica shopping.
func TestFailoverAttestRefusalTerminal(t *testing.T) {
	refused := false
	refuser := clientFunc{
		attest: func() ([]byte, error) { refused = true; return nil, &RefusedError{Msg: "bad quote"} },
	}
	replica := &fakeEndpoint{pub: []byte("pub1")}
	fc, err := NewFailoverClient([]string{"r", "ok"},
		WithClientFactory(func(addr string) SecretChannel {
			if addr == "r" {
				return refuser
			}
			return replica
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	_, err = fc.Attest(context.Background(), &sgx.Quote{}, []byte("cpub"))
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v, want ErrRefused", err)
	}
	if !refused {
		t.Fatal("refusing endpoint never consulted")
	}
	if replica.attests != 0 {
		t.Fatal("failover shopped a refusal to the replica")
	}
}

// clientFunc adapts closures to the SecretChannel interface.
type clientFunc struct {
	attest  func() ([]byte, error)
	request func() ([]byte, error)
}

func (c clientFunc) Close() error { return nil }

func (c clientFunc) Attest(context.Context, *sgx.Quote, []byte) ([]byte, error) {
	return c.attest()
}

func (c clientFunc) Request(context.Context, []byte) ([]byte, error) {
	if c.request == nil {
		return nil, ErrNotAttested
	}
	return c.request()
}

// TestFailoverSessionLost: the attested endpoint dies mid-protocol; the
// replica re-attests with a *different* server key, so the in-flight
// session is unrecoverable and Request reports ErrSessionLost.
func TestFailoverSessionLost(t *testing.T) {
	ep0 := &fakeEndpoint{pub: []byte("pub0")}
	ep1 := &fakeEndpoint{pub: []byte("pub1")} // different key: fresh session
	fc, metrics := newFakePool(t, []*fakeEndpoint{ep0, ep1})

	if _, err := fc.Attest(context.Background(), &sgx.Quote{}, []byte("cpub")); err != nil {
		t.Fatal(err)
	}
	ep0.setDown(true)
	_, err := fc.Request(context.Background(), []byte("x"))
	if !errors.Is(err, ErrSessionLost) {
		t.Fatalf("err = %v, want ErrSessionLost", err)
	}
	if ep1.attests != 1 {
		t.Fatalf("replica re-attested %d times, want 1", ep1.attests)
	}
	snap := metrics.Snapshot()
	if snap.Counters["failover.session_lost"] != 1 {
		t.Fatalf("session_lost counter = %d, want 1", snap.Counters["failover.session_lost"])
	}
	if snap.Counters["failover.switches"] == 0 {
		t.Fatal("no failover switch counted")
	}
}

// TestFailoverSessionResumed: when the replica returns the *same* server
// key (shared resume cache), the channel survives and the request is
// retried there transparently.
func TestFailoverSessionResumed(t *testing.T) {
	shared := []byte("shared-pub")
	ep0 := &fakeEndpoint{pub: shared}
	ep1 := &fakeEndpoint{pub: shared}
	fc, _ := newFakePool(t, []*fakeEndpoint{ep0, ep1})

	if _, err := fc.Attest(context.Background(), &sgx.Quote{}, []byte("cpub")); err != nil {
		t.Fatal(err)
	}
	ep0.setDown(true)
	out, err := fc.Request(context.Background(), []byte("x"))
	if err != nil {
		t.Fatalf("resumed request failed: %v", err)
	}
	if string(out) != "ok" {
		t.Fatalf("resumed request returned %q", out)
	}
	if ep1.requests != 1 {
		t.Fatalf("replica served %d requests, want 1", ep1.requests)
	}
}

// TestFailoverAllEndpointsDown: exhausting the pool yields
// ErrServerUnavailable, and the breakers have tripped.
func TestFailoverAllEndpointsDown(t *testing.T) {
	ep0 := &fakeEndpoint{pub: []byte("p0"), down: true}
	ep1 := &fakeEndpoint{pub: []byte("p1"), down: true}
	fc, metrics := newFakePool(t, []*fakeEndpoint{ep0, ep1})
	_, err := fc.Attest(context.Background(), &sgx.Quote{}, []byte("cpub"))
	if !errors.Is(err, ErrServerUnavailable) {
		t.Fatalf("err = %v, want ErrServerUnavailable", err)
	}
	if metrics.Snapshot().Counters["failover.exhausted"] == 0 {
		t.Fatal("exhaustion not counted")
	}
}

// TestFailoverBreakersOpenNamed: once every breaker is open, a pass admits
// no endpoint. The pool says so and names the open breakers, instead of
// reporting zero attempts and a nil cause.
func TestFailoverBreakersOpenNamed(t *testing.T) {
	ep0 := &fakeEndpoint{pub: []byte("p0"), down: true}
	fc, _ := newFakePool(t, []*fakeEndpoint{ep0},
		WithBreakerThreshold(1), WithBreakerCooldown(time.Hour),
		WithEndpointClientOptions(fastRetry(0)...))
	ctx := context.Background()
	if _, err := fc.Attest(ctx, &sgx.Quote{}, []byte("cpub")); !errors.Is(err, ErrServerUnavailable) {
		t.Fatalf("first attest: err = %v, want ErrServerUnavailable", err)
	}
	_, err := fc.Attest(ctx, &sgx.Quote{}, []byte("cpub"))
	if !errors.Is(err, ErrServerUnavailable) {
		t.Fatalf("second attest: err = %v, want ErrServerUnavailable", err)
	}
	if !strings.Contains(err.Error(), "open circuit breakers: [ep0]") {
		t.Fatalf("error does not name the open breaker: %v", err)
	}
	if ep0.attests != 1 {
		t.Fatalf("endpoint attested %d times, want 1 (its breaker is open)", ep0.attests)
	}
}

// TestFailoverBreakerKeepsCause: a dead endpoint retried until its
// breaker opens still reports why it failed, not only that the breaker is
// open.
func TestFailoverBreakerKeepsCause(t *testing.T) {
	l := listen(t)
	addr := l.Addr().String()
	l.Close()
	fc, err := NewFailoverClient([]string{addr}, WithEndpointClientOptions(fastRetry(3)...))
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	_, err = fc.Attest(context.Background(), &sgx.Quote{}, []byte("cpub"))
	if !errors.Is(err, ErrServerUnavailable) {
		t.Fatalf("err = %v, want ErrServerUnavailable", err)
	}
	for _, want := range []string{"open circuit breakers", "connection refused"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error lacks %q: %v", want, err)
		}
	}
}

// TestDeadFleetDialsOncePerPass: one resilient restore against three
// endpoints that refuse connections, with the default retry and breaker
// settings, dials each endpoint once per pass until its breaker opens —
// at most 9 dials — and reports the outage once: only one layer retries.
func TestDeadFleetDialsOncePerPass(t *testing.T) {
	if testing.Short() {
		t.Skip("enclave protocol run in -short")
	}
	_, h := env(t)
	p := buildApp(t, h, SanitizeOptions{})
	var addrs []string
	for i := 0; i < 3; i++ {
		l := listen(t)
		addrs = append(addrs, l.Addr().String())
		l.Close()
	}
	var mu sync.Mutex
	dials := make(map[string]int)
	fc, err := NewFailoverClient(addrs, WithEndpointClientOptions(
		WithDialer(func(ctx context.Context, addr string) (net.Conn, error) {
			mu.Lock()
			dials[addr]++
			mu.Unlock()
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		})))
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	encl, rt, err := p.Launch(h, fc, p.LocalFiles())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = RestoreResilient(context.Background(), encl, rt, 0)
	took := time.Since(start)
	if !errors.Is(err, ErrServerUnavailable) {
		t.Fatalf("err = %v, want ErrServerUnavailable", err)
	}
	mu.Lock()
	defer mu.Unlock()
	total := 0
	for addr, n := range dials {
		total += n
		if n > 3 {
			t.Errorf("%s dialed %d times, want <= 3 (one per pass until its breaker opens)", addr, n)
		}
	}
	if total > 9 {
		t.Errorf("%d dials in all, want <= 9", total)
	}
	if n := strings.Count(err.Error(), "unavailable after"); n != 1 {
		t.Errorf("error reports the outage %d times: %v", n, err)
	}
	t.Logf("%d dials in %v: %v", total, took, err)
}

// killableServer runs one real TCP auth server that the test can kill.
type killableServer struct {
	addr   string
	cancel context.CancelFunc
	served chan error
}

func startKillable(t *testing.T, p *Protected, ca *sgx.CA, opts ...ServerOption) *killableServer {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return startKillableOn(t, p, ca, l, opts...)
}

// startKillableOn is startKillable over a pre-created listener, for
// replicated fleets where every peer's address must exist before any
// server is constructed.
func startKillableOn(t *testing.T, p *Protected, ca *sgx.CA, l net.Listener, opts ...ServerOption) *killableServer {
	t.Helper()
	srv, err := p.NewServerFor(ca, append([]ServerOption{WithDrainTimeout(50 * time.Millisecond)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ks := &killableServer{addr: l.Addr().String(), cancel: cancel, served: make(chan error, 1)}
	go func() { ks.served <- srv.Serve(ctx, l) }()
	t.Cleanup(ks.kill)
	return ks
}

func (ks *killableServer) kill() {
	if ks.cancel == nil {
		return
	}
	ks.cancel()
	ks.cancel = nil
	<-ks.served
}

// killOnFirstRequest passes Attest through and kills a server just before
// the first channel request — the exact window between Attest and
// REQUEST_META that ad-hoc timing cannot hit deterministically.
type killOnFirstRequest struct {
	SecretChannel
	kill func()
	once sync.Once
}

func (k *killOnFirstRequest) Request(ctx context.Context, enc []byte) ([]byte, error) {
	k.once.Do(k.kill)
	return k.SecretChannel.Request(ctx, enc)
}

// TestReplicaTakeoverMidProtocol is the end-to-end survivability scenario:
// the attested server dies between Attest and REQUEST_META, the failover
// client re-attests to a replica whose resume cache has never seen the
// session (fresh server key → ErrSessionLost), and the resilient restore
// classifies that as retryable and completes the protocol against the
// replica on the next run.
func TestReplicaTakeoverMidProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("enclave protocol run in -short")
	}
	ca, h := env(t)
	p := buildApp(t, h, SanitizeOptions{})
	srv0 := startKillable(t, p, ca)
	srv1 := startKillable(t, p, ca)

	metrics := obs.NewRegistry()
	fc, err := NewFailoverClient([]string{srv0.addr, srv1.addr},
		WithFailoverMetrics(metrics),
		WithBreakerCooldown(50*time.Millisecond),
		WithClientFactory(func(addr string) SecretChannel {
			// Unbundled: the kill must land before a wire REQUEST_META,
			// which a bundled attest would never send.
			c := NewTCPClient(addr, append(fastRetry(1), WithProtocolVersion(ProtoUnbundled))...)
			if addr == srv0.addr {
				return &killOnFirstRequest{SecretChannel: c, kill: srv0.kill}
			}
			return c
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	encl, rt, err := p.Launch(h, fc, p.LocalFiles())
	if err != nil {
		t.Fatal(err)
	}
	out, err := RestoreResilient(context.Background(), encl, rt, 0)
	if err != nil {
		t.Fatalf("resilient restore failed: %v (events %v)", err, out.Events)
	}
	if out.Code != RestoreOKServer || out.Source != "server" {
		t.Fatalf("outcome = code %d source %q, want server restore", out.Code, out.Source)
	}
	if out.Attempts < 2 {
		t.Fatalf("restore recovered in %d attempt(s); the kill never bit", out.Attempts)
	}
	lost := false
	for _, e := range out.Events {
		if errors.Is(e, ErrSessionLost) {
			lost = true
		}
	}
	if !lost {
		t.Fatalf("no ErrSessionLost among events %v", out.Events)
	}
	if metrics.Snapshot().Counters["failover.session_lost"] == 0 {
		t.Fatal("session_lost not counted")
	}
	// The restored enclave must actually compute.
	if got, err := encl.ECall("ecall_compute", 99); err != nil || got != secretTransformGo(99) {
		t.Fatalf("post-takeover compute = %d, %v", got, err)
	}
}

// TestFailoverResumeOnPeer is the replicated counterpart of
// TestReplicaTakeoverMidProtocol: with resume replication on, the attested
// server dies between Attest and REQUEST_META, the failover client lands
// on a replica that already holds the session, and the protocol completes
// in ONE attempt with ZERO attestation flights on the replica — no
// ErrSessionLost, no silent downgrade to full re-attestation. Both
// members gossip once an hour, so only the push can have put the session
// on the replica: this is the job push replication is kept for.
func TestFailoverResumeOnPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("enclave protocol run in -short")
	}
	ca, h := env(t)
	p := buildApp(t, h, SanitizeOptions{})
	l0, l1 := listen(t), listen(t)
	addr0, addr1 := l0.Addr().String(), l1.Addr().String()
	key := bytes.Repeat([]byte{0x33}, 32)
	m0, m1 := obs.NewRegistry(), obs.NewRegistry()
	srv0 := startKillableOn(t, p, ca, l0,
		WithServerMetrics(m0), WithFleet(key, addr0, addr1), WithGossipInterval(time.Hour))
	startKillableOn(t, p, ca, l1,
		WithServerMetrics(m1), WithFleet(key, addr1, addr0), WithGossipInterval(time.Hour))

	// Kill the attested replica only once its session has demonstrably
	// replicated — the zero-extra-flights assertion must not race the
	// async push.
	killAfterReplicated := func() {
		waitCounter(t, m1, "server.resume_replicated", 1)
		srv0.kill()
	}

	metrics := obs.NewRegistry()
	fc, err := NewFailoverClient([]string{srv0.addr, l1.Addr().String()},
		WithFailoverMetrics(metrics),
		WithBreakerCooldown(50*time.Millisecond),
		WithClientFactory(func(addr string) SecretChannel {
			c := NewTCPClient(addr, append(fastRetry(1), WithProtocolVersion(ProtoUnbundled))...)
			if addr == srv0.addr {
				return &killOnFirstRequest{SecretChannel: c, kill: killAfterReplicated}
			}
			return c
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	encl, rt, err := p.Launch(h, fc, p.LocalFiles())
	if err != nil {
		t.Fatal(err)
	}
	out, err := RestoreResilient(context.Background(), encl, rt, 0)
	if err != nil {
		t.Fatalf("resilient restore failed: %v (events %v)", err, out.Events)
	}
	if out.Attempts != 1 {
		t.Fatalf("restore took %d attempts (events %v); a replicated resume must survive the kill within one", out.Attempts, out.Events)
	}
	for _, e := range out.Events {
		if errors.Is(e, ErrSessionLost) {
			t.Fatalf("session lost despite replication: %v", out.Events)
		}
	}
	if got := m1.Counter("server.attest_resumed").Load(); got < 1 {
		t.Fatalf("replica attest_resumed = %d, want >= 1", got)
	}
	if got := m1.Counter("server.attest_ok").Load(); got != 0 {
		t.Fatalf("replica ran %d full attestation flights, want 0", got)
	}
	if metrics.Snapshot().Counters["failover.session_resumed"] == 0 {
		t.Fatal("failover.session_resumed not counted")
	}
	if got, err := encl.ECall("ecall_compute", 99); err != nil || got != secretTransformGo(99) {
		t.Fatalf("post-takeover compute = %d, %v", got, err)
	}
}
