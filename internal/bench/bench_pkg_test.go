package bench

import (
	"sync"
	"testing"

	"sgxelide/internal/elide"
)

var (
	envOnce sync.Once
	envVal  *Env
	envErr  error
)

// sharedEnv reuses one platform across package tests (EPC is large enough;
// enclaves are destroyed after use where it matters).
func sharedEnv(t testing.TB) *Env {
	t.Helper()
	envOnce.Do(func() { envVal, envErr = NewEnv() })
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envVal
}

// TestBaselines runs every benchmark's built-in test suite in a plain SGX
// enclave — proving the seven ports are correct against their reference
// implementations (crypto/aes, crypto/des, crypto/sha*, and the Go game
// oracles).
func TestBaselines(t *testing.T) {
	env := sharedEnv(t)
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			encl, err := BuildBaseline(env, p)
			if err != nil {
				t.Fatal(err)
			}
			defer encl.Destroy()
			if err := p.Workload(env.Host, encl); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestProtectedRemote runs every benchmark through the full SgxElide flow
// in remote-data mode: sanitize, sign, attest, restore, then the test suite.
func TestProtectedRemote(t *testing.T) {
	env := sharedEnv(t)
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			prot, err := BuildProtected(env, p, elide.SanitizeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if prot.Stats.SanitizedFunctions == 0 {
				t.Fatal("nothing sanitized")
			}
			code, err := RunProtected(env, prot, p, 0)
			if err != nil {
				t.Fatal(err)
			}
			if code != elide.RestoreOKServer {
				t.Fatalf("restore code %d", code)
			}
		})
	}
}

// TestProtectedLocal runs one representative benchmark in local-data mode
// (the full matrix is exercised by Table 2 / Figure 4).
func TestProtectedLocal(t *testing.T) {
	env := sharedEnv(t)
	for _, p := range []*Program{AES, Crackme} {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			prot, err := BuildProtected(env, p, elide.SanitizeOptions{EncryptLocal: true})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := RunProtected(env, prot, p, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSealedSecondLaunch exercises the sealing extension on a benchmark.
func TestSealedSecondLaunch(t *testing.T) {
	env := sharedEnv(t)
	prot, err := BuildProtected(env, Crackme, elide.SanitizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := prot.NewServerFor(env.CA)
	if err != nil {
		t.Fatal(err)
	}
	encl, rt, err := prot.Launch(env.Host, &elide.DirectClient{Session: srv.NewSession()}, prot.LocalFiles())
	if err != nil {
		t.Fatal(err)
	}
	if code, err := encl.ECall("elide_restore", elide.FlagSealAfter); err != nil || code != 0 {
		t.Fatalf("restore: %d %v (%v)", code, err, rt.LastErr())
	}
	encl.Destroy()
	encl2, _, err := prot.Launch(env.Host, &elide.DirectClient{Session: srv.NewSession()}, rt.Files)
	if err != nil {
		t.Fatal(err)
	}
	defer encl2.Destroy()
	code, err := encl2.ECall("elide_restore", elide.FlagTrySealed)
	if err != nil || code != elide.RestoreOKSealed {
		t.Fatalf("sealed restore: %d %v", code, err)
	}
	if err := Crackme.Workload(env.Host, encl2); err != nil {
		t.Fatal(err)
	}
}

// TestTable1Smoke checks the Table 1 harness produces plausible rows.
func TestTable1Smoke(t *testing.T) {
	env := sharedEnv(t)
	rows, err := Table1(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.SanitizedFunctions == 0 || r.SanitizedBytes == 0 || r.TCFunctions <= r.SanitizedFunctions {
			t.Errorf("%s: implausible row %+v", r.Name, r)
		}
		if r.TCwElide <= r.TCwSGX || r.UCwElide <= r.UCwSGX {
			t.Errorf("%s: elide LoC not added", r.Name)
		}
	}
	t.Logf("\n%s", RenderTable1(rows))
}
