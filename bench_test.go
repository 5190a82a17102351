// Ablation benchmarks for the design choices DESIGN.md calls out. Run
// with:
//
//	go test -bench=Ablation -benchmem
//
// The paper's tables and figures are measured by cmd/elide-bench
// (-table1 -table2 -fig3 -fig4).
package sgxelide_test

import (
	"sync"
	"testing"
	"time"

	"sgxelide/internal/bench"
	"sgxelide/internal/elide"
)

var (
	envOnce sync.Once
	envVal  *bench.Env
	envErr  error
)

func benchEnv(b *testing.B) *bench.Env {
	b.Helper()
	envOnce.Do(func() { envVal, envErr = bench.NewEnv() })
	if envErr != nil {
		b.Fatal(envErr)
	}
	return envVal
}

// BenchmarkAblation_WholeTextVsRanges compares the paper's simple
// whole-text-section secret (§5) against the per-function ranges
// optimization it describes but does not implement: ranges shrink the
// secret data and the restore copy.
func BenchmarkAblation_WholeTextVsRanges(b *testing.B) {
	env := benchEnv(b)
	p := bench.Shas // the largest trusted component
	for _, mode := range []struct {
		name string
		opts elide.SanitizeOptions
	}{
		{"WholeText", elide.SanitizeOptions{}},
		{"Ranges", elide.SanitizeOptions{Ranges: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			prot, err := bench.BuildProtected(env, p, mode.opts)
			if err != nil {
				b.Fatal(err)
			}
			srv, err := prot.NewServerFor(env.CA)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(prot.SecretData)), "secret-bytes")
			var restoreNs int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				encl, rt, err := prot.Launch(env.Host, &elide.DirectClient{Session: srv.NewSession()}, prot.LocalFiles())
				if err != nil {
					b.Fatal(err)
				}
				t0 := time.Now()
				code, err := encl.ECall("elide_restore", 0)
				restoreNs += time.Since(t0).Nanoseconds()
				if err != nil || code != elide.RestoreOKServer {
					b.Fatalf("restore: %d %v (%v)", code, err, rt.LastErr())
				}
				encl.Destroy()
			}
			b.ReportMetric(float64(restoreNs)/float64(b.N)/1e6, "restore-ms/op")
		})
	}
}

// BenchmarkAblation_BlacklistVsWhitelist compares the paper's rejected
// blacklist design (§3.2 — only annotated functions sanitized) against the
// whitelist: the blacklist redacts less and restores faster but puts the
// secrecy burden on the developer.
func BenchmarkAblation_BlacklistVsWhitelist(b *testing.B) {
	env := benchEnv(b)
	p := bench.AES
	for _, mode := range []struct {
		name string
		opts elide.SanitizeOptions
	}{
		{"Whitelist", elide.SanitizeOptions{Ranges: true}},
		{"Blacklist", elide.SanitizeOptions{Ranges: true, Blacklist: []string{
			"aes_cipher", "aes_inv_cipher", "aes_key_expansion", "ecall_aes_set_key",
		}}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			prot, err := bench.BuildProtected(env, p, mode.opts)
			if err != nil {
				b.Fatal(err)
			}
			srv, err := prot.NewServerFor(env.CA)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(prot.Stats.SanitizedFunctions), "sanitized-fns")
			b.ReportMetric(float64(len(prot.SecretData)), "secret-bytes")
			var restoreNs int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				encl, rt, err := prot.Launch(env.Host, &elide.DirectClient{Session: srv.NewSession()}, prot.LocalFiles())
				if err != nil {
					b.Fatal(err)
				}
				t0 := time.Now()
				code, err := encl.ECall("elide_restore", 0)
				restoreNs += time.Since(t0).Nanoseconds()
				if err != nil || code != elide.RestoreOKServer {
					b.Fatalf("restore: %d %v (%v)", code, err, rt.LastErr())
				}
				encl.Destroy()
			}
			b.ReportMetric(float64(restoreNs)/float64(b.N)/1e6, "restore-ms/op")
		})
	}
}

// BenchmarkAblation_SealedRestore measures the sealing extension (§7,
// future work in the paper): after the first launch the secret restores
// from the sealed file with zero server traffic.
func BenchmarkAblation_SealedRestore(b *testing.B) {
	env := benchEnv(b)
	p := bench.Crackme
	prot, err := bench.BuildProtected(env, p, elide.SanitizeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := prot.NewServerFor(env.CA)
	if err != nil {
		b.Fatal(err)
	}
	// First launch seals.
	encl, rt, err := prot.Launch(env.Host, &elide.DirectClient{Session: srv.NewSession()}, prot.LocalFiles())
	if err != nil {
		b.Fatal(err)
	}
	if code, err := encl.ECall("elide_restore", elide.FlagSealAfter); err != nil || code != 0 {
		b.Fatalf("first restore: %d %v (%v)", code, err, rt.LastErr())
	}
	encl.Destroy()
	files := rt.Files

	b.Run("FromServer", func(b *testing.B) {
		var restoreNs int64
		for i := 0; i < b.N; i++ {
			e2, rt2, err := prot.Launch(env.Host, &elide.DirectClient{Session: srv.NewSession()}, prot.LocalFiles())
			if err != nil {
				b.Fatal(err)
			}
			t0 := time.Now()
			code, err := e2.ECall("elide_restore", 0)
			restoreNs += time.Since(t0).Nanoseconds()
			if err != nil || code != elide.RestoreOKServer {
				b.Fatalf("restore: %d %v (%v)", code, err, rt2.LastErr())
			}
			e2.Destroy()
		}
		b.ReportMetric(float64(restoreNs)/float64(b.N)/1e6, "restore-ms/op")
	})
	b.Run("FromSealedFile", func(b *testing.B) {
		var restoreNs int64
		for i := 0; i < b.N; i++ {
			e2, _, err := prot.Launch(env.Host, &elide.DirectClient{Session: srv.NewSession()}, files)
			if err != nil {
				b.Fatal(err)
			}
			t0 := time.Now()
			code, err := e2.ECall("elide_restore", elide.FlagTrySealed)
			restoreNs += time.Since(t0).Nanoseconds()
			if err != nil || code != elide.RestoreOKSealed {
				b.Fatalf("sealed restore: %d %v", code, err)
			}
			e2.Destroy()
		}
		b.ReportMetric(float64(restoreNs)/float64(b.N)/1e6, "restore-ms/op")
	})
}

// BenchmarkAblation_TransparentFirstCall quantifies why the paper made
// elide_restore explicit (§3.4): in transparent mode the first ecall
// absorbs the entire restoration, an unpredictable latency spike, while
// after an explicit restore the same ecall is microseconds.
func BenchmarkAblation_TransparentFirstCall(b *testing.B) {
	env := benchEnv(b)
	p := bench.Crackme

	b.Run("ExplicitRestoreThenCall", func(b *testing.B) {
		prot, err := bench.BuildProtected(env, p, elide.SanitizeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		srv, err := prot.NewServerFor(env.CA)
		if err != nil {
			b.Fatal(err)
		}
		buf := env.Host.AllocBytes([]byte("x\x00"))
		var callNs int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			encl, rt, err := prot.Launch(env.Host, &elide.DirectClient{Session: srv.NewSession()}, prot.LocalFiles())
			if err != nil {
				b.Fatal(err)
			}
			if code, err := encl.ECall("elide_restore", 0); err != nil || code != 0 {
				b.Fatalf("restore: %d %v (%v)", code, err, rt.LastErr())
			}
			t0 := time.Now()
			if _, err := encl.ECall("ecall_crackme_check", buf); err != nil { // measured: post-restore first user ecall
				b.Fatal(err)
			}
			callNs += time.Since(t0).Nanoseconds()
			encl.Destroy()
		}
		b.ReportMetric(float64(callNs)/float64(b.N)/1e6, "first-call-ms/op")
	})
	b.Run("TransparentFirstCall", func(b *testing.B) {
		prot, err := bench.BuildProtected(env, p, elide.SanitizeOptions{AutoRestore: true})
		if err != nil {
			b.Fatal(err)
		}
		srv, err := prot.NewServerFor(env.CA)
		if err != nil {
			b.Fatal(err)
		}
		buf := env.Host.AllocBytes([]byte("x\x00"))
		var callNs int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			encl, rt, err := prot.Launch(env.Host, &elide.DirectClient{Session: srv.NewSession()}, prot.LocalFiles())
			if err != nil {
				b.Fatal(err)
			}
			t0 := time.Now()
			if _, err := encl.ECall("ecall_crackme_check", buf); err != nil { // measured: restore happens inside this call
				b.Fatalf("%v (%v)", err, rt.LastErr())
			}
			callNs += time.Since(t0).Nanoseconds()
			encl.Destroy()
		}
		b.ReportMetric(float64(callNs)/float64(b.N)/1e6, "first-call-ms/op")
	})
}
