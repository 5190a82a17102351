package bench

import (
	"testing"

	"sgxelide/internal/elide"
	"sgxelide/internal/obs"
)

// BenchmarkRestoreObsOverhead quantifies what full observability costs a
// cold restore: "bare" runs with no tracer and no audit log (every obs
// call no-ops through the nil receivers), "observed" runs with a client
// tracer, a server tracer joined to the same trace, and a shared audit
// log — the elide-run -connect + -admin-addr production configuration.
// Both run tracedLaunch on a fresh machine, so they differ only in
// whether a tracer and audit log are attached. EXPERIMENTS.md quotes the
// delta; the budget is <2% on p50.
func BenchmarkRestoreObsOverhead(b *testing.B) {
	env := sharedEnv(b)
	prot, err := BuildProtected(env, Sha1, elide.SanitizeOptions{EncryptLocal: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name     string
		observed bool
	}{
		{"bare", false},
		{"observed", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var audit *obs.AuditLog
				if mode.observed {
					audit = obs.NewAuditLog(0)
				}
				if _, err := tracedLaunch(env, prot, mode.observed, audit); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
