package bench

import (
	"bytes"
	"context"
	"crypto/subtle"
	"fmt"
	"net"
	"time"

	"sgxelide/internal/elide"
	"sgxelide/internal/obs"
	"sgxelide/internal/sdk"
	"sgxelide/internal/sgx"
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

// resumeSession is one client's channel state carried across the kill.
type resumeSession struct {
	priv, pub []byte
	quote     *sgx.Quote
	serverPub []byte
}

// runResumeMode provisions replicas A and B (peered when replicate is
// set), establishes every session on A, kills A, and replays every
// session against B.
func runResumeMode(env *Env, prot *elide.Protected, quoter *quoteFactory, cfg ResumeConfig, replicate bool, counters map[string]uint64) (ResumeModeResult, error) {
	out := ResumeModeResult{Sessions: cfg.Sessions}
	lA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return out, err
	}
	lB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = lA.Close()
		return out, err
	}
	mA, mB := obs.NewRegistry(), obs.NewRegistry()
	optsFor := func(m *obs.Registry, peer string) []elide.ServerOption {
		opts := []elide.ServerOption{
			elide.WithServerMetrics(m),
			elide.WithDrainTimeout(100 * time.Millisecond),
		}
		if replicate {
			// The fleet sealing key is what keeps channel keys wrapped on
			// the replication wire; a fixed key is fine for a benchmark.
			opts = append(opts, elide.WithResumeReplication(bytes.Repeat([]byte{0xB7}, 32), peer))
		}
		return opts
	}
	serve := func(l net.Listener, opts []elide.ServerOption) (context.CancelFunc, chan error, error) {
		srv, err := prot.NewServerFor(env.CA, opts...)
		if err != nil {
			return nil, nil, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ctx, l) }()
		return cancel, served, nil
	}
	killA, servedA, err := serve(lA, optsFor(mA, lB.Addr().String()))
	if err != nil {
		_ = lA.Close()
		_ = lB.Close()
		return out, err
	}
	killedA := false
	defer func() {
		if !killedA {
			killA()
			<-servedA
		}
	}()
	cancelB, servedB, err := serve(lB, optsFor(mB, lA.Addr().String()))
	if err != nil {
		_ = lB.Close()
		return out, err
	}
	defer func() {
		cancelB()
		<-servedB
	}()

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer cancel()
	wantMeta := prot.Meta.Marshal()

	sessions := make([]resumeSession, cfg.Sessions)
	for i := range sessions {
		priv, pub, err := sdk.GenerateECDHKeypair()
		if err != nil {
			return out, err
		}
		q, err := quoter.quoteFor(pub)
		if err != nil {
			return out, err
		}
		c := elide.NewTCPClient(lA.Addr().String(),
			elide.WithDialTimeout(cfg.Timeout),
			elide.WithRequestTimeout(cfg.Timeout),
		)
		spub, err := c.Attest(ctx, q, pub)
		_ = c.Close()
		if err != nil {
			return out, fmt.Errorf("session %d attest: %w", i, err)
		}
		sessions[i] = resumeSession{priv: priv, pub: pub, quote: q, serverPub: spub}
	}

	if replicate {
		// The push is async; the kill must not race it or the run would
		// measure a replication gap, not the steady state.
		deadline := time.Now().Add(10 * time.Second)
		for mB.Counter("server.resume_replicated").Load() < uint64(cfg.Sessions) {
			if time.Now().After(deadline) {
				return out, fmt.Errorf("only %d/%d sessions replicated to the peer",
					mB.Counter("server.resume_replicated").Load(), cfg.Sessions)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	killA()
	<-servedA
	killedA = true

	latency := obs.NewHistogram()
	start := time.Now()
	for i := range sessions {
		ss := &sessions[i]
		c := elide.NewTCPClient(lB.Addr().String(),
			elide.WithDialTimeout(cfg.Timeout),
			elide.WithRequestTimeout(cfg.Timeout),
		)
		t0 := time.Now()
		spub, err := c.ResumeAttest(ctx, ss.quote, ss.pub)
		if err != nil {
			_ = c.Close()
			return out, fmt.Errorf("session %d resume: %w", i, err)
		}
		latency.Observe(time.Since(t0))
		if bytes.Equal(spub, ss.serverPub) {
			out.Resumed++
		} else {
			out.ReAttested++
		}
		// Whatever key the replica answered with, the channel must work:
		// a resumed session reuses the old key, a downgraded one derives a
		// fresh one — a torn state that does neither is a harness bug.
		err = func() error {
			defer func() { _ = c.Close() }()
			key, err := sdk.DeriveChannelKey(ss.priv, spub)
			if err != nil {
				return err
			}
			defer sdk.Wipe(key)
			enc, err := elide.ChannelSeal(key, []byte{elide.RequestMeta})
			if err != nil {
				return err
			}
			resp, err := c.Request(ctx, enc)
			if err != nil {
				return fmt.Errorf("post-resume request: %w", err)
			}
			meta, err := elide.ChannelOpen(key, resp)
			if err != nil {
				return err
			}
			defer sdk.Wipe(meta)
			if subtle.ConstantTimeCompare(meta, wantMeta) != 1 {
				return fmt.Errorf("post-resume request returned wrong metadata")
			}
			return nil
		}()
		if err != nil {
			return out, fmt.Errorf("session %d: %w", i, err)
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
	for _, snap := range []obs.Snapshot{mA.Snapshot(), mB.Snapshot()} {
		for k, v := range snap.Counters {
			counters[prefix+k] += v
		}
	}
	return out, nil
}
