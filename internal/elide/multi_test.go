package elide

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"sgxelide/internal/sdk"
	"sgxelide/internal/sgx"
)

// A second application with a different secret algorithm, so its sanitized
// image, measurement, and secret data all differ from the first app's.
const app2EDL = `
enclave {
    trusted {
        public uint64_t ecall_compute(uint64_t x);
    };
    untrusted {
    };
};
`

const app2C = `
/* A different proprietary algorithm than app.c's. */
uint64_t secret_transform(uint64_t x) {
    uint64_t acc = 13;
    for (int i = 0; i < 6; i++) {
        acc = acc * 40503 + ((x >> (i * 8)) & 255) + 17;
    }
    return acc;
}

uint64_t ecall_compute(uint64_t x) { return secret_transform(x); }
`

// secretTransform2Go is the Go reference for the second app's algorithm.
func secretTransform2Go(x uint64) uint64 {
	acc := uint64(13)
	for i := 0; i < 6; i++ {
		acc = acc*40503 + ((x >> (i * 8)) & 255) + 17
	}
	return acc
}

// buildApp2 builds the protected second test app.
func buildApp2(t *testing.T, h *sdk.Host, san SanitizeOptions) *Protected {
	t.Helper()
	wl, key := fixtures(t)
	p, err := BuildProtected(h, BuildProtectedOptions{
		Sanitize:  san,
		AppEDL:    app2EDL,
		Sources:   []sdk.Source{sdk.C("app2.c", app2C)},
		SignKey:   key,
		Whitelist: wl,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// registerProtected puts a built deployment into a store the way
// NewServerFor would configure a single server for it.
func registerProtected(t *testing.T, st *SecretStore, p *Protected, name string) {
	t.Helper()
	var plain []byte
	if !p.Meta.Encrypted {
		plain = p.SecretData
	}
	if _, err := st.Register(p.Measurement, p.Meta, plain, name); err != nil {
		t.Fatal(err)
	}
}

// TestMultiEnclaveServing is the end-to-end multi-tenant check: one server
// process concurrently serves two differently-sanitized enclaves over TCP,
// each restore succeeds, each enclave runs its own (distinct) secret
// algorithm afterwards, and the per-enclave release counters prove each
// identity was served exactly its own secrets.
func TestMultiEnclaveServing(t *testing.T) {
	ca, h := env(t)
	pA := buildApp(t, h, SanitizeOptions{})
	pB := buildApp2(t, h, SanitizeOptions{})
	if pA.Measurement == pB.Measurement {
		t.Fatal("the two apps share a measurement; the test is vacuous")
	}
	if bytes.Equal(pA.SecretData, pB.SecretData) {
		t.Fatal("the two apps share secret data; the test is vacuous")
	}

	store := NewSecretStore()
	registerProtected(t, store, pA, "app-a")
	registerProtected(t, store, pB, "app-b")
	srv, err := NewMultiServer(ca.PublicKey(), store, WithIOTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, l) }()

	// Both enclaves restore concurrently against the one server, each on
	// its own simulated user machine.
	type result struct {
		name string
		err  error
	}
	results := make(chan result, 2)
	run := func(name string, p *Protected, check func(*sdk.Enclave) error) {
		err := func() error {
			platform, err := sgx.NewPlatform(sgx.Config{}, ca)
			if err != nil {
				return err
			}
			host := sdk.NewHost(platform)
			client := NewTCPClient(l.Addr().String())
			defer client.Close()
			encl, rt, err := p.Launch(host, client, p.LocalFiles())
			if err != nil {
				return err
			}
			defer encl.Destroy()
			code, err := encl.ECall("elide_restore", 0)
			if err != nil {
				return err
			}
			if code != RestoreOKServer {
				return fmt.Errorf("restore = %d (runtime: %v)", code, rt.LastErr())
			}
			return check(encl)
		}()
		results <- result{name, err}
	}
	go run("app-a", pA, func(encl *sdk.Enclave) error {
		for _, x := range []uint64{3, 0xFEED} {
			got, err := encl.ECall("ecall_compute", x)
			if err != nil {
				return err
			}
			if got != secretTransformGo(x) {
				return fmt.Errorf("A.compute(%#x) = %#x, want %#x — wrong code restored", x, got, secretTransformGo(x))
			}
		}
		return nil
	})
	go run("app-b", pB, func(encl *sdk.Enclave) error {
		for _, x := range []uint64{3, 0xFEED} {
			got, err := encl.ECall("ecall_compute", x)
			if err != nil {
				return err
			}
			if got != secretTransform2Go(x) {
				return fmt.Errorf("B.compute(%#x) = %#x, want %#x — wrong code restored", x, got, secretTransform2Go(x))
			}
		}
		return nil
	})
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("%s: %v", r.name, r.err)
		}
	}
	cancel()
	if err := <-served; err != nil && !errors.Is(err, ErrServerClosed) {
		t.Fatal(err)
	}

	// Release accounting: each identity attested and was served its meta
	// and data exactly once — no cross-enclave traffic.
	for _, tc := range []struct {
		name string
		p    *Protected
	}{{"app-a", pA}, {"app-b", pB}} {
		e, ok := store.Lookup(tc.p.Measurement)
		if !ok {
			t.Fatalf("%s missing from store", tc.name)
		}
		st := e.Stats()
		if st.Attests != 1 || st.MetaServed != 1 || st.DataServed != 1 {
			t.Errorf("%s release counters: %+v", tc.name, st)
		}
	}
}

// attestedGoSession runs the client half of the attested-channel protocol
// in Go against a server session, using a quote legitimately produced for
// the given enclave: it returns the session and the derived channel key.
func attestedGoSession(t *testing.T, srv *Server, h *sdk.Host, encl *sdk.Enclave) (*Session, []byte) {
	t.Helper()
	priv, pub, err := sdk.GenerateECDHKeypair()
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
	ss := srv.NewSession()
	spub, err := ss.Attest(quote, pub)
	if err != nil {
		t.Fatal(err)
	}
	key, err := sdk.DeriveChannelKey(priv, spub)
	if err != nil {
		t.Fatal(err)
	}
	return ss, key
}

// TestWrongMeasurementIsolation drives the channel protocol directly:
// a session attested as enclave A receives exactly A's metadata and data,
// never B's, and an unregistered measurement is refused outright.
func TestWrongMeasurementIsolation(t *testing.T) {
	ca, h := env(t)
	pA := buildApp(t, h, SanitizeOptions{})
	pB := buildApp2(t, h, SanitizeOptions{})

	store := NewSecretStore()
	registerProtected(t, store, pA, "app-a")
	registerProtected(t, store, pB, "app-b")
	srv, err := NewMultiServer(ca.PublicKey(), store)
	if err != nil {
		t.Fatal(err)
	}

	// Loading the enclaves gives us platform-signed quotes for both
	// identities (the quote is over the *sanitized* measurement).
	launch := func(p *Protected) *sdk.Enclave {
		t.Helper()
		rt := &Runtime{Client: deadClient{}, Files: &FileStore{}}
		rt.Install(h)
		encl, err := h.CreateEnclave(p.SanitizedELF, p.SigStruct, p.EDL)
		if err != nil {
			t.Fatal(err)
		}
		return encl
	}
	enclA := launch(pA)
	enclB := launch(pB)

	request := func(ss *Session, key []byte, req byte) ([]byte, error) {
		t.Helper()
		enc, err := sealEncrypt(key, []byte{req})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ss.Request(enc)
		if err != nil {
			return nil, err
		}
		return sealDecrypt(key, resp)
	}

	ssA, keyA := attestedGoSession(t, srv, h, enclA)
	ssB, keyB := attestedGoSession(t, srv, h, enclB)

	metaA, err := request(ssA, keyA, RequestMeta)
	if err != nil {
		t.Fatal(err)
	}
	metaB, err := request(ssB, keyB, RequestMeta)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(metaA, pA.Meta.Marshal()) {
		t.Error("session A did not receive A's metadata")
	}
	if !bytes.Equal(metaB, pB.Meta.Marshal()) {
		t.Error("session B did not receive B's metadata")
	}
	if bytes.Equal(metaA, metaB) {
		t.Error("sessions for different enclaves received identical metadata")
	}

	dataA, err := request(ssA, keyA, RequestData)
	if err != nil {
		t.Fatal(err)
	}
	dataB, err := request(ssB, keyB, RequestData)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dataA, pA.SecretData) || bytes.Equal(dataA, pB.SecretData) {
		t.Error("session A's data release is not exactly A's secret")
	}
	if !bytes.Equal(dataB, pB.SecretData) || bytes.Equal(dataB, pA.SecretData) {
		t.Error("session B's data release is not exactly B's secret")
	}

	// Removing B at runtime refuses new attestations for it while A keeps
	// working — runtime removal takes effect immediately.
	if !store.Remove(pB.Measurement) {
		t.Fatal("remove failed")
	}
	priv, pub, err := sdk.GenerateECDHKeypair()
	_ = priv
	if err != nil {
		t.Fatal(err)
	}
	var rdata [sgx.ReportDataSize]byte
	binding := sha256.Sum256(pub)
	copy(rdata[:], binding[:])
	report, err := h.Platform.EReport(enclB.Encl, sgx.QETargetInfo(), rdata)
	if err != nil {
		t.Fatal(err)
	}
	quote, err := h.Platform.QuoteReport(report)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.NewSession().Attest(quote, pub); err == nil || !strings.Contains(err.Error(), "measurement") {
		t.Errorf("removed enclave attested: %v", err)
	}
	if _, err := request(ssA, keyA, RequestMeta); err != nil {
		t.Errorf("A's session broken by B's removal: %v", err)
	}
}

// TestBackoffConcurrentRequests is the -race regression for the backoff
// jitter source: one client, many goroutines, every attempt forced through
// a failing dial so each one sleeps a jittered backoff concurrently.
func TestBackoffConcurrentRequests(t *testing.T) {
	dialErr := errors.New("synthetic dial failure")
	c := NewTCPClient("unused:0",
		WithRetryBudget(2),
		WithRetryBackoff(time.Microsecond, 4*time.Microsecond),
		WithDialer(func(ctx context.Context, addr string) (net.Conn, error) {
			return nil, dialErr
		}),
	)
	// Pretend a prior attestation succeeded so Request reaches the retry
	// loop (and therefore the backoff path) directly.
	c.mu.Lock()
	c.attested = true
	c.handshake = &attestMsg{}
	c.mu.Unlock()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				_, err := c.Request(context.Background(), []byte("x"))
				if !errors.Is(err, ErrServerUnavailable) {
					t.Errorf("err = %v, want ErrServerUnavailable", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
