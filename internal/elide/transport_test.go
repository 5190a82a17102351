package elide

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sgxelide/internal/obs"
	"sgxelide/internal/sdk"
	"sgxelide/internal/sgx"
)

// --- frame protocol ---

// TestStatusFrameZeroLengthResponse: a legitimate empty response is
// distinguishable from a refusal — the regression the status prefix fixes.
func TestStatusFrameZeroLengthResponse(t *testing.T) {
	var buf bytes.Buffer
	if err := writeResponse(&buf, nil); err != nil {
		t.Fatal(err)
	}
	resp, err := readResponse(&buf)
	if err != nil {
		t.Fatalf("zero-length response read as error: %v", err)
	}
	if len(resp) != 0 {
		t.Fatalf("resp = %x, want empty", resp)
	}
}

func TestStatusFrameError(t *testing.T) {
	var buf bytes.Buffer
	if err := writeErrorFrame(&buf, "measurement mismatch"); err != nil {
		t.Fatal(err)
	}
	_, err := readResponse(&buf)
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v, want ErrRefused", err)
	}
	if !strings.Contains(err.Error(), "measurement mismatch") {
		t.Fatalf("refusal lost the server's reason: %v", err)
	}
}

func TestFrameTooLargeOnWrite(t *testing.T) {
	var buf bytes.Buffer
	err := writeFrame(&buf, make([]byte, MaxFrame+1))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("oversized frame partially written (%d bytes)", buf.Len())
	}
}

func TestFrameTooLargeOnRead(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff}) // 4 GiB length header
	_, err := readFrameInto(&buf, nil)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestMalformedResponseFrames(t *testing.T) {
	// A frame with no status byte and a frame with an unknown status are
	// both protocol errors, not payloads.
	for _, frame := range [][]byte{{}, {42, 1, 2}} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, frame); err != nil {
			t.Fatal(err)
		}
		if _, err := readResponse(&buf); err == nil {
			t.Fatalf("frame %x accepted", frame)
		}
	}
}

// --- wire-level client behaviour (scripted server, no enclave) ---

// serveWire runs a scripted protocol server on l; handle is invoked per
// connection with its 0-based index.
func serveWire(t *testing.T, l net.Listener, handle func(i int, conn net.Conn)) {
	t.Helper()
	go func() {
		for i := 0; ; i++ {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(i int, conn net.Conn) {
				defer conn.Close()
				handle(i, conn)
			}(i, conn)
		}
	}()
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// fastRetry keeps test backoffs tiny.
func fastRetry(n int) []ClientOption {
	return []ClientOption{
		WithRetryBudget(n),
		WithRetryBackoff(time.Millisecond, 8*time.Millisecond),
		WithDialTimeout(time.Second),
		WithRequestTimeout(2 * time.Second),
	}
}

// TestClientRetriesDialFailures: the first dials fail outright; the client
// backs off and eventually reaches the server.
func TestClientRetriesDialFailures(t *testing.T) {
	l := listen(t)
	serveWire(t, l, func(i int, conn net.Conn) {
		if _, err := readHandshake(conn); err != nil {
			return
		}
		writeResponse(conn, marshalAttestReply(make([]byte, 32), nil, nil))
	})
	var dials atomic.Int32
	metrics := obs.NewRegistry()
	opts := append(fastRetry(4),
		WithClientMetrics(metrics),
		WithDialer(func(ctx context.Context, addr string) (net.Conn, error) {
			if dials.Add(1) <= 2 {
				return nil, fmt.Errorf("connect: connection refused")
			}
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}))
	c := NewTCPClient(l.Addr().String(), opts...)
	defer c.Close()
	pub, err := c.Attest(context.Background(), &sgx.Quote{}, make([]byte, 32))
	if err != nil {
		t.Fatalf("attest did not recover: %v", err)
	}
	if len(pub) != 32 {
		t.Fatalf("pub = %d bytes", len(pub))
	}
	if got := dials.Load(); got != 3 {
		t.Fatalf("dials = %d, want 3", got)
	}
	if got := metrics.Counter("client.attest_retries").Load(); got != 2 {
		t.Fatalf("retry counter = %d, want 2", got)
	}
}

// TestClientExhaustsRetryBudget: with the server down the client gives up
// after its budget with ErrServerUnavailable.
func TestClientExhaustsRetryBudget(t *testing.T) {
	var dials atomic.Int32
	opts := append(fastRetry(3), WithDialer(func(ctx context.Context, addr string) (net.Conn, error) {
		dials.Add(1)
		return nil, fmt.Errorf("connect: connection refused")
	}))
	c := NewTCPClient("127.0.0.1:1", opts...)
	defer c.Close()
	start := time.Now()
	_, err := c.Attest(context.Background(), &sgx.Quote{}, make([]byte, 32))
	if !errors.Is(err, ErrServerUnavailable) {
		t.Fatalf("err = %v, want ErrServerUnavailable", err)
	}
	if got := dials.Load(); got != 4 { // initial + 3 retries
		t.Fatalf("dials = %d, want 4", got)
	}
	// Backoff actually waited between attempts (3 sleeps of >= base/2).
	if elapsed := time.Since(start); elapsed < 1500*time.Microsecond {
		t.Fatalf("retries did not back off (%v elapsed)", elapsed)
	}
}

// TestClientDoesNotRetryRefusal: a server refusal is final — no retry
// budget is spent on it and the reason survives.
func TestClientDoesNotRetryRefusal(t *testing.T) {
	l := listen(t)
	serveWire(t, l, func(i int, conn net.Conn) {
		if _, err := readHandshake(conn); err != nil {
			return
		}
		writeErrorFrame(conn, "enclave measurement dead0000 is not the expected sanitized enclave")
	})
	var dials atomic.Int32
	opts := append(fastRetry(5), WithDialer(func(ctx context.Context, addr string) (net.Conn, error) {
		dials.Add(1)
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}))
	c := NewTCPClient(l.Addr().String(), opts...)
	defer c.Close()
	_, err := c.Attest(context.Background(), &sgx.Quote{}, make([]byte, 32))
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v, want ErrRefused", err)
	}
	if errors.Is(err, ErrServerUnavailable) {
		t.Fatal("refusal misclassified as unavailability")
	}
	if !strings.Contains(err.Error(), "measurement") {
		t.Fatalf("reason lost: %v", err)
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("dials = %d, want 1 (refusals must not be retried)", got)
	}
}

// TestRequestBeforeAttest: the typed protocol-state error.
func TestRequestBeforeAttest(t *testing.T) {
	c := NewTCPClient("127.0.0.1:1")
	defer c.Close()
	_, err := c.Request(context.Background(), []byte("x"))
	if !errors.Is(err, ErrNotAttested) {
		t.Fatalf("err = %v, want ErrNotAttested", err)
	}
}

// TestClientReconnectReplaysHandshake: the server drops the connection
// after attestation; the client's request transparently redials, replays
// the handshake (session resumption), and succeeds.
func TestClientReconnectReplaysHandshake(t *testing.T) {
	l := listen(t)
	var handshakes atomic.Int32
	serveWire(t, l, func(i int, conn net.Conn) {
		if _, err := readHandshake(conn); err != nil {
			return
		}
		handshakes.Add(1)
		writeResponse(conn, marshalAttestReply(make([]byte, 32), nil, nil))
		if i == 0 {
			return // drop before answering any request
		}
		req, err := readFrameInto(conn, nil)
		if err != nil {
			return
		}
		writeResponse(conn, append([]byte("echo:"), req...))
	})
	c := NewTCPClient(l.Addr().String(), fastRetry(3)...)
	defer c.Close()
	ctx := context.Background()
	if _, err := c.Attest(ctx, &sgx.Quote{}, make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Request(ctx, []byte("payload"))
	if err != nil {
		t.Fatalf("request did not recover from the dropped connection: %v", err)
	}
	if string(resp) != "echo:payload" {
		t.Fatalf("resp = %q", resp)
	}
	if got := handshakes.Load(); got != 2 {
		t.Fatalf("handshakes = %d, want 2 (replay on reconnect)", got)
	}
}

// TestClientRecoversFromTruncatedResponse: a response torn mid-frame by a
// FaultConn is retried on a fresh connection.
func TestClientRecoversFromTruncatedResponse(t *testing.T) {
	l := listen(t)
	serveWire(t, l, func(i int, conn net.Conn) {
		if _, err := readHandshake(conn); err != nil {
			return
		}
		writeResponse(conn, marshalAttestReply(make([]byte, 32), nil, nil))
		req, err := readFrameInto(conn, nil)
		if err != nil {
			return
		}
		writeResponse(conn, append([]byte("ok:"), req...))
	})
	var dials atomic.Int32
	opts := append(fastRetry(3), WithDialer(func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		if dials.Add(1) == 1 {
			// First connection: tear the stream after the attest reply
			// (46 = frame header + status + 41-byte unbundled reply),
			// mid-request.
			return NewFaultConn(conn).FailReadsAfter(46 + 5).Truncating(), nil
		}
		return conn, nil
	}))
	c := NewTCPClient(l.Addr().String(), opts...)
	defer c.Close()
	ctx := context.Background()
	if _, err := c.Attest(ctx, &sgx.Quote{}, make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Request(ctx, []byte("req"))
	if err != nil {
		t.Fatalf("request did not recover from truncation: %v", err)
	}
	if string(resp) != "ok:req" {
		t.Fatalf("resp = %q", resp)
	}
	if got := dials.Load(); got != 2 {
		t.Fatalf("dials = %d, want 2", got)
	}
}

// TestClientContextCancellation: a cancelled context stops the retry loop
// immediately with the context's error, not ErrServerUnavailable.
func TestClientContextCancellation(t *testing.T) {
	opts := []ClientOption{
		WithRetryBudget(1000),
		WithRetryBackoff(50*time.Millisecond, time.Second),
		WithDialer(func(ctx context.Context, addr string) (net.Conn, error) {
			return nil, fmt.Errorf("connect: connection refused")
		}),
	}
	c := NewTCPClient("127.0.0.1:1", opts...)
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.Attest(ctx, &sgx.Quote{}, make([]byte, 32))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancellation did not interrupt the backoff sleep")
	}
}

// --- server robustness (real enclave restores) ---

// TestRestoreRecoversFromInjectedFaults is the end-to-end fault drill: the
// first two connections the runtime makes die mid-stream (one torn write
// during the handshake, one torn read during the channel), and the full
// enclave restore still completes through retry + session resumption.
func TestRestoreRecoversFromInjectedFaults(t *testing.T) {
	ca, h := env(t)
	p := buildApp(t, h, SanitizeOptions{})
	srv, err := p.NewServerFor(ca)
	if err != nil {
		t.Fatal(err)
	}
	l := listen(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.Serve(ctx, l)

	var dials atomic.Int32
	opts := append(fastRetry(5), WithDialer(func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		switch dials.Add(1) {
		case 1:
			// Dies on its first handshake write.
			return NewFaultConn(conn).WithScript(FaultAction{Op: OpWrite, Fail: true}), nil
		case 2:
			// Handshake goes out, then the reply read dies.
			return NewFaultConn(conn).WithScript(FaultAction{Op: OpRead, Fail: true}), nil
		default:
			return conn, nil
		}
	}))
	client := NewTCPClient(l.Addr().String(), opts...)
	defer client.Close()
	encl, rt, err := p.Launch(h, client, p.LocalFiles())
	if err != nil {
		t.Fatal(err)
	}
	code, err := encl.ECall("elide_restore", 0)
	if err != nil || code != RestoreOKServer {
		t.Fatalf("restore under fault injection: %d %v (runtime errs: %v)", code, err, rt.Errs())
	}
	if got, err := encl.ECall("ecall_compute", 9); err != nil || got != secretTransformGo(9) {
		t.Fatalf("compute after faulty restore: %v %v", got, err)
	}
	if got := dials.Load(); got < 3 {
		t.Fatalf("dials = %d, want >= 3 (two injected failures)", got)
	}
}

// TestRestoreGivesUpWhenServerGone: no listener at all — the restore fails
// with a clean enclave error code and the runtime ring holds
// ErrServerUnavailable.
func TestRestoreGivesUpWhenServerGone(t *testing.T) {
	_, h := env(t)
	p := buildApp(t, h, SanitizeOptions{})
	client := NewTCPClient("127.0.0.1:1", fastRetry(2)...)
	defer client.Close()
	encl, rt, err := p.Launch(h, client, p.LocalFiles())
	if err != nil {
		t.Fatal(err)
	}
	code, err := encl.ECall("elide_restore", 0)
	if err != nil {
		t.Fatalf("enclave crashed instead of failing cleanly: %v", err)
	}
	if code < 100 {
		t.Fatalf("restore claims success with no server: %d", code)
	}
	if !errors.Is(rt.LastErr(), ErrServerUnavailable) {
		t.Fatalf("LastErr = %v, want ErrServerUnavailable", rt.LastErr())
	}
}

// gateClient wraps a Client and pauses the first Request until released,
// so tests can hold a real attested session in flight deterministically.
type gateClient struct {
	inner   SecretChannel
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGateClient(inner SecretChannel) *gateClient {
	return &gateClient{inner: inner, entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateClient) Attest(ctx context.Context, q *sgx.Quote, pub []byte) ([]byte, error) {
	return g.inner.Attest(ctx, q, pub)
}

func (g *gateClient) Request(ctx context.Context, enc []byte) ([]byte, error) {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	return g.inner.Request(ctx, enc)
}

func (g *gateClient) Close() error { return g.inner.Close() }

// TestGracefulShutdownDrainsInFlight: cancelling Serve's context while a
// restore is mid-protocol lets that session finish; only then does Serve
// return ErrServerClosed. New connections are refused immediately.
func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	ca, h := env(t)
	p := buildApp(t, h, SanitizeOptions{})
	srv, err := p.NewServerFor(ca, WithIOTimeout(10*time.Second), WithDrainTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	l := listen(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, l) }()

	tcp := NewTCPClient(l.Addr().String(), fastRetry(2)...)
	defer tcp.Close()
	gate := newGateClient(tcp)
	encl, rt, err := p.Launch(h, gate, p.LocalFiles())
	if err != nil {
		t.Fatal(err)
	}
	restored := make(chan error, 1)
	go func() {
		code, err := encl.ECall("elide_restore", 0)
		if err == nil && code != RestoreOKServer {
			err = fmt.Errorf("restore code %d (runtime: %v)", code, rt.Errs())
		}
		restored <- err
	}()

	<-gate.entered // session attested, first channel request pending
	cancel()       // begin graceful shutdown with the session in flight

	select {
	case err := <-served:
		t.Fatalf("Serve returned %v with a session still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(gate.release) // let the restore finish against the draining server
	if err := <-restored; err != nil {
		t.Fatalf("in-flight restore failed during graceful shutdown: %v", err)
	}

	// New connections must be refused now.
	if conn, err := net.DialTimeout("tcp", l.Addr().String(), time.Second); err == nil {
		conn.Close()
		t.Fatal("listener still accepting after shutdown began")
	}

	tcp.Close() // session ends; the server can finish draining
	select {
	case err := <-served:
		if !errors.Is(err, ErrServerClosed) {
			t.Fatalf("Serve = %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after the drained session closed")
	}
}

// TestShutdownForceClosesStragglers: a client that never finishes cannot
// hold shutdown beyond the drain window.
func TestShutdownForceClosesStragglers(t *testing.T) {
	ca, h := env(t)
	p := buildApp(t, h, SanitizeOptions{})
	srv, err := p.NewServerFor(ca, WithDrainTimeout(100*time.Millisecond), WithIOTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	l := listen(t)
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, l) }()

	// A connection that sends nothing, forever.
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	time.Sleep(50 * time.Millisecond) // let the server accept it
	cancel()
	select {
	case err := <-served:
		if !errors.Is(err, ErrServerClosed) {
			t.Fatalf("Serve = %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain window did not force-close the straggler")
	}
}

// TestServerPanicContained: a panic while serving one session is recovered,
// reported to that client as an error frame, and the server keeps serving.
func TestServerPanicContained(t *testing.T) {
	ca, h := env(t)
	p := buildApp(t, h, SanitizeOptions{})
	metrics := obs.NewRegistry()
	srv, err := p.NewServerFor(ca, WithServerMetrics(metrics))
	if err != nil {
		t.Fatal(err)
	}
	var first atomic.Bool
	first.Store(true)
	srv.opt.onHandshake = func(*attestMsg) {
		if first.CompareAndSwap(true, false) {
			panic("poisoned session")
		}
	}
	l := listen(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.Serve(ctx, l)

	// First session: panics server-side; the client sees a refusal-shaped
	// error, not a hang.
	c1 := NewTCPClient(l.Addr().String(), fastRetry(0)...)
	defer c1.Close()
	if _, err := c1.Attest(context.Background(), &sgx.Quote{}, make([]byte, 32)); err == nil {
		t.Fatal("attest succeeded against a panicking session")
	}

	// The server survived: a real restore on a fresh session succeeds.
	client := NewTCPClient(l.Addr().String(), fastRetry(2)...)
	defer client.Close()
	encl, rt, err := p.Launch(h, client, p.LocalFiles())
	if err != nil {
		t.Fatal(err)
	}
	code, err := encl.ECall("elide_restore", 0)
	if err != nil || code != RestoreOKServer {
		t.Fatalf("restore after panic: %d %v (%v)", code, err, rt.Errs())
	}
	if got := metrics.Counter("server.panics").Load(); got != 1 {
		t.Fatalf("panic counter = %d, want 1", got)
	}
}

// TestStress64ConcurrentRestores: 64 simultaneous attest+restore sessions
// against one server, squeezed through a 16-session semaphore. All client
// hosts share one tracer (as all sessions share the server's), so this
// also stresses concurrent span creation and restore-span synthesis. Run
// with -race in tier-1 verification.
func TestStress64ConcurrentRestores(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	ca, h := env(t)
	p := buildApp(t, h, SanitizeOptions{})
	metrics := obs.NewRegistry()
	tracer := obs.NewTracer(0)
	srvTracer := obs.NewTracer(0)
	srv, err := p.NewServerFor(ca,
		WithMaxSessions(16), // < clients: accepts must queue on the semaphore
		WithServerMetrics(metrics),
		WithServerTracer(srvTracer),
	)
	if err != nil {
		t.Fatal(err)
	}
	l := listen(t)
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, l) }()

	const clients = 64
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each client is its own machine under the same CA.
			platform, err := sgx.NewPlatform(sgx.Config{}, ca)
			if err != nil {
				errs <- err
				return
			}
			host := sdk.NewHost(platform)
			host.Tracer = tracer // deliberately shared across all 64 clients
			// Generous timeouts: with 64 CPU-heavy restores sharing few
			// cores, tight deadlines measure scheduler starvation, not
			// transport correctness.
			// Unbundled: every restore also drives the server's request
			// loop, which the latency histogram below checks.
			client := NewTCPClient(l.Addr().String(),
				WithProtocolVersion(ProtoUnbundled),
				WithRetryBudget(5),
				WithDialTimeout(30*time.Second),
				WithRequestTimeout(time.Minute),
				WithClientTracer(tracer),
			)
			defer client.Close()
			encl, rt, err := p.Launch(host, client, p.LocalFiles())
			if err != nil {
				errs <- err
				return
			}
			code, err := Restore(encl, 0)
			if err != nil || code != RestoreOKServer {
				errs <- fmt.Errorf("client %d: restore %d %v (%v)", i, code, err, rt.Errs())
				return
			}
			x := uint64(i) * 0x9E3779B9
			if got, err := encl.ECall("ecall_compute", x); err != nil || got != secretTransformGo(x) {
				errs <- fmt.Errorf("client %d: compute %v %v", i, got, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := metrics.Counter("server.sessions").Load(); got < clients {
		t.Fatalf("server saw %d sessions, want >= %d", got, clients)
	}
	if got := metrics.Counter("server.attest_ok").Load(); got < clients {
		t.Fatalf("attest_ok = %d, want >= %d", got, clients)
	}
	snap := metrics.Snapshot()
	if snap.Histograms["server.request_ns"].Count == 0 {
		t.Fatal("request latency histogram empty")
	}
	// Each client's trace must have synthesized its own restore span — the
	// synthesis filters the shared ring by trace ID, so a miscount here
	// means cross-client attribution under concurrency.
	restores := 0
	for _, r := range tracer.Completed() {
		if r.Name == "restore" {
			restores++
		}
	}
	if restores != clients {
		t.Fatalf("synthesized %d restore spans, want %d", restores, clients)
	}
	if got := len(srvTracer.Completed()); got < clients {
		t.Fatalf("server tracer recorded %d spans, want >= %d", got, clients)
	}
	cancel()
	select {
	case err := <-served:
		if !errors.Is(err, ErrServerClosed) {
			t.Fatalf("Serve = %v, want ErrServerClosed", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down after the stress run")
	}
}

// TestRuntimeErrRing: concurrent writers and readers on the runtime's
// error ring, and the ring's size bound.
func TestRuntimeErrRing(t *testing.T) {
	rt := &Runtime{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				rt.recordErr(fmt.Errorf("worker %d error %d", i, j))
				rt.LastErr()
				rt.Errs()
			}
		}(i)
	}
	wg.Wait()
	errs := rt.Errs()
	if len(errs) != errRingCap {
		t.Fatalf("ring holds %d, want %d", len(errs), errRingCap)
	}
	if rt.LastErr() == nil {
		t.Fatal("LastErr lost the final error")
	}
	if rt.LastErr().Error() != errs[len(errs)-1].Error() {
		t.Fatal("LastErr is not the newest ring entry")
	}
}

// TestNewServerForOptions: the deployment helper forwards server options.
func TestNewServerForOptions(t *testing.T) {
	ca, h := env(t)
	p := buildApp(t, h, SanitizeOptions{})
	srv, err := p.NewServerFor(ca, WithMaxSessions(3))
	if err != nil {
		t.Fatal(err)
	}
	if srv.opt.maxSessions != 3 {
		t.Fatalf("maxSessions = %d", srv.opt.maxSessions)
	}
}
