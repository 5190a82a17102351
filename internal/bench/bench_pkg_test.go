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

// shapeCounts are the exact instruction counts TestFigureShape asserts on,
// per program, recorded by the runs the other tests make anyway.
type shapeCounts struct {
	baselineSuite uint64
	remote        Steps  // restore and test suite, remote-data mode
	localRestore  uint64 // local-data mode restore
}

var (
	countsMu sync.Mutex
	counts   = map[string]*shapeCounts{}
)

// recordCounts updates p's shape counts under the lock.
func recordCounts(p *Program, update func(c *shapeCounts)) {
	countsMu.Lock()
	defer countsMu.Unlock()
	if counts[p.Name] == nil {
		counts[p.Name] = &shapeCounts{}
	}
	update(counts[p.Name])
}

// countsOf returns a copy of p's shape counts recorded so far.
func countsOf(p *Program) (c shapeCounts) {
	recordCounts(p, func(got *shapeCounts) { c = *got })
	return c
}

// runBaseline runs p's test suite in a plain SGX enclave and records its
// instruction count.
func runBaseline(t *testing.T, env *Env, p *Program) {
	encl, err := BuildBaseline(env, p)
	if err != nil {
		t.Fatal(err)
	}
	defer encl.Destroy()
	if err := p.Workload(env.Host, encl); err != nil {
		t.Fatal(err)
	}
	recordCounts(p, func(c *shapeCounts) { c.baselineSuite = encl.Steps })
}

// runProtectedRemote runs p through the full SgxElide flow in remote-data
// mode and records its restore and test-suite instruction counts.
func runProtectedRemote(t *testing.T, env *Env, p *Program) {
	prot, err := BuildProtected(env, p, elide.SanitizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if prot.Stats.SanitizedFunctions == 0 {
		t.Fatal("nothing sanitized")
	}
	code, steps, err := RunProtected(env, prot, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if code != elide.RestoreOKServer {
		t.Fatalf("restore code %d", code)
	}
	recordCounts(p, func(c *shapeCounts) { c.remote = steps })
}

// TestBaselines runs every benchmark's built-in test suite in a plain SGX
// enclave — proving the seven ports are correct against their reference
// implementations (crypto/aes, crypto/des, crypto/sha*, and the Go game
// oracles).
func TestBaselines(t *testing.T) {
	env := sharedEnv(t)
	for _, p := range All() {
		t.Run(p.Name, func(t *testing.T) { runBaseline(t, env, p) })
	}
}

// TestProtectedRemote runs every benchmark through the full SgxElide flow
// in remote-data mode: sanitize, sign, attest, restore, then the test suite.
func TestProtectedRemote(t *testing.T) {
	env := sharedEnv(t)
	for _, p := range All() {
		t.Run(p.Name, func(t *testing.T) { runProtectedRemote(t, env, p) })
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
			_, steps, err := RunProtected(env, prot, p, 0)
			if err != nil {
				t.Fatal(err)
			}
			recordCounts(p, func(c *shapeCounts) { c.localRestore = steps.Restore })
		})
	}
}

// suiteSlack bounds how far a protected test suite's instruction count may
// stray from the plain-SGX one: both run the same application code. Today
// they are 2 apart, the heap cursor's first-use setup in tRTS heap_mark,
// which the protected enclave's restore ecall has already paid.
const suiteSlack = 8

// TestFigureShape asserts the paper's Figure 3/4 shape from exact
// instruction counts, which do not drift with the host's speed as wall
// time does: for each Figure program, in remote- and local-data mode, the
// restore costs at most 3% of the test suite it enables, and sanitizing
// leaves the test suite's own cost alone. It reads the counts the earlier
// tests of this file recorded and runs only what they did not.
func TestFigureShape(t *testing.T) {
	env := sharedEnv(t)
	for _, p := range All() {
		if p.IsGame {
			continue
		}
		t.Run(p.Name, func(t *testing.T) {
			if countsOf(p).baselineSuite == 0 {
				runBaseline(t, env, p)
			}
			if countsOf(p).remote.Suite == 0 {
				runProtectedRemote(t, env, p)
			}
			if countsOf(p).localRestore == 0 {
				// A local-data restore alone: the suite is the remote run's.
				prot, err := BuildProtected(env, p, elide.SanitizeOptions{EncryptLocal: true})
				if err != nil {
					t.Fatal(err)
				}
				encl, rt, err := LaunchProtected(env, prot)
				if err != nil {
					t.Fatal(err)
				}
				code, err := encl.ECall("elide_restore", 0)
				encl.Destroy()
				if err != nil || code != elide.RestoreOKServer {
					t.Fatalf("local restore: %d, %v (runtime: %v)", code, err, rt.LastErr())
				}
				recordCounts(p, func(c *shapeCounts) { c.localRestore = encl.Steps })
			}

			c := countsOf(p)
			suite := c.remote.Suite
			if d := int64(suite) - int64(c.baselineSuite); d < -suiteSlack || d > suiteSlack {
				t.Errorf("test suite: protected %d vs baseline %d instructions, %d apart (at most %d)",
					suite, c.baselineSuite, d, suiteSlack)
			}
			for _, r := range []struct {
				mode    string
				restore uint64
			}{{"remote", c.remote.Restore}, {"local", c.localRestore}} {
				pct := 100 * float64(r.restore) / float64(suite)
				t.Logf("%s: restore %d of suite %d instructions = %.2f%%", r.mode, r.restore, suite, pct)
				if pct > 3 {
					t.Errorf("%s restore is %.2f%% of the test suite (%d of %d instructions), over the paper's 3%%",
						r.mode, pct, r.restore, suite)
				}
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
