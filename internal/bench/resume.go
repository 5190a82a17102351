package bench

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"sgxelide/internal/elide"
	"sgxelide/internal/obs"
)

// ResumeConfig drives the kill-replica-then-resume-elsewhere benchmark:
// Sessions clients attest to replica A, A is killed, and every client then
// replays its handshake against replica B. The run happens twice — once
// with resume replication between the replicas and once without — so the
// report shows the cost the replication layer removes: with it, B resumes
// every session with zero attestation flights; without it, every resumed
// session silently pays a full re-attestation.
type ResumeConfig struct {
	Program  string        // benchmark program (see All); default "Sha1"
	Sessions int           // sessions to establish and resume; default 16
	Timeout  time.Duration // per-operation deadline; default 1m
}

// ResumeModeResult is one mode's half of BENCH_resume.json.
type ResumeModeResult struct {
	Sessions   int `json:"sessions"`
	Resumed    int `json:"resumed"`     // replays answered with the original server key
	ReAttested int `json:"re_attested"` // replays downgraded to a full re-attestation

	// Full attestation flights replica B ran to serve the replays — the
	// headline number: 0 with replication, 1 per session without.
	ExtraAttestFlights   uint64         `json:"extra_attest_flights"`
	ExtraAttestPerResume float64        `json:"extra_attest_flights_per_resume"`
	ResumeLatency        LatencySummary `json:"resume_latency"`
	WallMs               float64        `json:"wall_ms"`
}

// ResumeResult is the JSON document elide-bench -resume writes to
// BENCH_resume.json.
type ResumeResult struct {
	Program    string            `json:"program"`
	Replicated ResumeModeResult  `json:"replicated"`
	Baseline   ResumeModeResult  `json:"baseline"`
	Counters   map[string]uint64 `json:"counters"`
}

func (r *ResumeResult) String() string {
	return fmt.Sprintf(
		"resume bench: %s, %d sessions killed over to a peer replica\n"+
			"  replicated: %d resumed / %d re-attested, %.2f extra attest flights per resume, p50 %.0fµs p99 %.0fµs\n"+
			"  baseline:   %d resumed / %d re-attested, %.2f extra attest flights per resume, p50 %.0fµs p99 %.0fµs",
		r.Program, r.Replicated.Sessions,
		r.Replicated.Resumed, r.Replicated.ReAttested, r.Replicated.ExtraAttestPerResume,
		r.Replicated.ResumeLatency.P50Us, r.Replicated.ResumeLatency.P99Us,
		r.Baseline.Resumed, r.Baseline.ReAttested, r.Baseline.ExtraAttestPerResume,
		r.Baseline.ResumeLatency.P50Us, r.Baseline.ResumeLatency.P99Us)
}

// ResumeBench runs the scenario in both modes and assembles the report.
func ResumeBench(env *Env, cfg ResumeConfig) (*ResumeResult, error) {
	if cfg.Program == "" {
		cfg.Program = "Sha1"
	}
	if cfg.Sessions <= 0 {
		cfg.Sessions = 16
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = time.Minute
	}
	p, err := ByName(cfg.Program)
	if err != nil {
		return nil, err
	}
	prot, err := BuildProtected(env, p, elide.SanitizeOptions{})
	if err != nil {
		return nil, err
	}
	quoter, err := newQuoteFactory(env, prot)
	if err != nil {
		return nil, err
	}

	res := &ResumeResult{Program: p.Name, Counters: map[string]uint64{}}
	if res.Replicated, err = runResumeMode(env, prot, quoter, cfg, true, res.Counters); err != nil {
		return nil, fmt.Errorf("bench: replicated resume run: %w", err)
	}
	if res.Baseline, err = runResumeMode(env, prot, quoter, cfg, false, res.Counters); err != nil {
		return nil, fmt.Errorf("bench: baseline resume run: %w", err)
	}
	return res, nil
}

// runResumeMode provisions replicas A and B (one fleet when replicate is
// set), establishes every session on A, kills A, and replays every
// session against B.
func runResumeMode(env *Env, prot *elide.Protected, quoter *quoteFactory, cfg ResumeConfig, replicate bool, counters map[string]uint64) (ResumeModeResult, error) {
	out := ResumeModeResult{Sessions: cfg.Sessions}
	mA, mB := obs.NewRegistry(), obs.NewRegistry()
	a := &replica{prot: prot, env: env, msrv: mA}
	b := &replica{prot: prot, env: env, msrv: mB}
	defer a.kill()
	defer b.kill()
	// Each replica seeds the other, so both addresses are bound before
	// either serves.
	if err := a.listen(); err != nil {
		return out, err
	}
	if err := b.listen(); err != nil {
		return out, err
	}
	if replicate {
		seededBy := func(peer string) func(string) []elide.ServerOption {
			// The fleet sealing key is what keeps channel keys wrapped on
			// the replication wire; a fixed key is fine for a benchmark.
			return func(self string) []elide.ServerOption {
				return []elide.ServerOption{elide.WithFleet(bytes.Repeat([]byte{0xB7}, 32), self, peer)}
			}
		}
		a.optsFor, b.optsFor = seededBy(b.addr), seededBy(a.addr)
	}
	if err := a.start(); err != nil {
		return out, err
	}
	if err := b.start(); err != nil {
		return out, err
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer cancel()
	sessions := make([]resumeSession, cfg.Sessions)
	for i := range sessions {
		var err error
		if sessions[i], err = attestSession(ctx, a.addr, quoter, cfg.Timeout); err != nil {
			return out, fmt.Errorf("session %d attest: %w", i, err)
		}
	}
	if replicate {
		// The push is async; the kill must not race it or the run would
		// measure a replication gap, not the steady state.
		if err := waitCounterAtLeast(mB, "server.resume_replicated", uint64(cfg.Sessions), 10*time.Second); err != nil {
			return out, fmt.Errorf("sessions not replicated to the peer: %w", err)
		}
	}
	a.kill()

	wantMeta := prot.Meta.Marshal()
	latency := obs.NewHistogram()
	start := time.Now()
	for i := range sessions {
		resumed, took, err := sessions[i].resumeOn(ctx, b.addr, wantMeta, cfg.Timeout)
		if err != nil {
			return out, fmt.Errorf("session %d: %w", i, err)
		}
		latency.Observe(took)
		if resumed {
			out.Resumed++
		} else {
			out.ReAttested++
		}
	}
	out.WallMs = float64(time.Since(start).Nanoseconds()) / 1e6
	out.ExtraAttestFlights = mB.Counter("server.attest_ok").Load()
	out.ExtraAttestPerResume = float64(out.ExtraAttestFlights) / float64(cfg.Sessions)
	out.ResumeLatency = summarize(latency.Snapshot())

	prefix := "baseline."
	if replicate {
		prefix = "replicated."
	}
	addCounters(counters, prefix, mA, mB)
	return out, nil
}
