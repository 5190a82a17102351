package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"sgxelide/internal/elide"
	"sgxelide/internal/obs"
	"sgxelide/internal/sdk"
	"sgxelide/internal/sgx"
)

// PhasesBenchConfig drives the per-phase restore breakdown: Iters traced
// launches of Program in each data mode, every launch on a fresh simulated
// machine (the paper measures cold launches).
type PhasesBenchConfig struct {
	Program string // benchmark name (see All); default "Sha1"
	Iters   int    // traced launches per mode; default 10
}

// PhaseModeResult is one data mode's breakdown: a latency summary per
// pipeline phase (attest, request_meta, request_data, decrypt, restore,
// seal) plus the end-to-end elide_restore ecall. Phases is the client
// hop's view (where the user-machine runtime spends the restore);
// ServerPhases is the same launches seen from the authentication server's
// session spans, so one run attributes every phase to its hop.
type PhaseModeResult struct {
	Mode         string                    `json:"mode"` // "remote-data" or "local-data"
	Phases       map[string]LatencySummary `json:"phases"`
	ServerPhases map[string]LatencySummary `json:"server_phases,omitempty"`
	Total        LatencySummary            `json:"total_restore"`
}

// PhasesBenchResult is the JSON document elide-bench writes to
// BENCH_restore_phases.json: where the restore time of Table 2 actually
// goes — attestation vs data fetch vs decrypt vs the memcpy restore.
type PhasesBenchResult struct {
	Program string            `json:"program"`
	Iters   int               `json:"iters"`
	Modes   []PhaseModeResult `json:"modes"`
}

func (r *PhasesBenchResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "restore phase breakdown: %s, %d iterations per mode\n", r.Program, r.Iters)
	for _, m := range r.Modes {
		fmt.Fprintf(&b, "  %s (total p50 %.0fµs):\n", m.Mode, m.Total.P50Us)
		for _, name := range elide.RestorePhases { // protocol order
			s, ok := m.Phases[name]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "    %-14s p50 %8.0fµs  p90 %8.0fµs  mean %8.0fµs (n=%d)\n",
				name, s.P50Us, s.P90Us, s.MeanUs, s.Count)
		}
		if len(m.ServerPhases) > 0 {
			fmt.Fprintf(&b, "    server hop:\n")
			snames := make([]string, 0, len(m.ServerPhases))
			for name := range m.ServerPhases {
				snames = append(snames, name)
			}
			sort.Strings(snames)
			for _, name := range snames {
				s := m.ServerPhases[name]
				fmt.Fprintf(&b, "      %-12s p50 %8.0fµs  p90 %8.0fµs  mean %8.0fµs (n=%d)\n",
					name, s.P50Us, s.P90Us, s.MeanUs, s.Count)
			}
		}
	}
	return strings.TrimRight(b.String(), "\n")
}

// tracedLaunch runs one full restore of prot on a fresh machine. When
// traced, it returns the merged cross-process trace: the client hop's
// spans (tagged svc=client) and the authentication server's session spans
// (svc=server), joined into one tree by the trace context the attestation
// carries; untraced, the same launch runs bare and returns no records.
// Flags always include seal-after so the seal phase is exercised. When
// audit is non-nil the server and the runtime emit their security events
// into it.
func tracedLaunch(env *Env, prot *elide.Protected, traced bool, audit *obs.AuditLog) ([]obs.SpanRecord, error) {
	platform, err := sgx.NewPlatform(sgx.Config{}, env.CA)
	if err != nil {
		return nil, err
	}
	host := sdk.NewHost(platform)
	var tracer, serverTracer *obs.Tracer // nil: every span call no-ops
	if traced {
		tracer = obs.NewTracer(0)
		tracer.SetService("client")
		serverTracer = obs.NewTracer(0)
		serverTracer.SetService("server")
	}
	host.Tracer = tracer
	srv, err := prot.NewServerFor(env.CA, elide.WithServerTracer(serverTracer), elide.WithServerAudit(audit))
	if err != nil {
		return nil, err
	}
	client := &elide.DirectClient{Session: srv.NewSession()}
	encl, rt, err := prot.Launch(host, client, prot.LocalFiles())
	if err != nil {
		return nil, err
	}
	defer encl.Destroy()
	rt.Audit = audit
	code, err := elide.Restore(encl, elide.FlagSealAfter)
	_ = client.Close() // completes the server's session span
	if err != nil {
		return nil, fmt.Errorf("restore: %w (runtime: %v)", err, rt.LastErr())
	}
	if code != elide.RestoreOKServer {
		return nil, fmt.Errorf("restore code %d (runtime: %v)", code, rt.LastErr())
	}
	if audit != nil {
		audit.Emit(obs.AuditEvent{Type: obs.AuditRestoreOK, TraceID: traceIDOf(tracer), Code: int64(code), Detail: "server"})
	}
	return append(tracer.Completed(), serverTracer.Completed()...), nil
}

// traceIDOf returns the trace of the launch's elide_restore root span.
func traceIDOf(tr *obs.Tracer) uint64 {
	for _, r := range tr.Completed() {
		if r.Name == "elide_restore" {
			return r.TraceID
		}
	}
	return 0
}

// PhasesBench measures the per-phase restore latency breakdown in both
// data modes. Each iteration is an independent traced launch; per-phase
// durations come from the launch's span records.
func PhasesBench(env *Env, cfg PhasesBenchConfig) (*PhasesBenchResult, error) {
	if cfg.Program == "" {
		cfg.Program = "Sha1"
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 10
	}
	p, err := ByName(cfg.Program)
	if err != nil {
		return nil, err
	}
	res := &PhasesBenchResult{Program: p.Name, Iters: cfg.Iters}
	for _, mode := range []struct {
		name string
		san  elide.SanitizeOptions
	}{
		{"remote-data", elide.SanitizeOptions{}},
		{"local-data", elide.SanitizeOptions{EncryptLocal: true}},
	} {
		prot, err := BuildProtected(env, p, mode.san)
		if err != nil {
			return nil, err
		}
		// One sample per phase per launch: a phase recorded as several
		// spans (the metadata and data decrypts) counts as their sum.
		type hopPhase struct{ svc, name string }
		h := hopHistograms{}
		for i := 0; i < cfg.Iters; i++ {
			recs, err := tracedLaunch(env, prot, true, nil)
			if err != nil {
				return nil, fmt.Errorf("%s iter %d: %w", mode.name, i, err)
			}
			sums := make(map[hopPhase]time.Duration)
			for _, r := range recs {
				sums[hopPhase{r.Svc, r.Name}] += r.Duration()
			}
			for k, d := range sums {
				h.observe(k.svc, k.name, d)
			}
		}
		hops := h.summaries()
		mr := PhaseModeResult{
			Mode:         mode.name,
			Phases:       make(map[string]LatencySummary, len(elide.RestorePhases)),
			ServerPhases: hops["server"],
			Total:        hops["client"]["elide_restore"],
		}
		for _, name := range elide.RestorePhases {
			if s, ok := hops["client"][name]; ok {
				mr.Phases[name] = s
			}
		}
		res.Modes = append(res.Modes, mr)
	}
	return res, nil
}

// ObsDemoResult is one fully observed restore: the merged cross-process
// span records, the rendered tree, and the audit events the run produced —
// the sample artifacts CI uploads so a schema change is visible in review.
type ObsDemoResult struct {
	Tree  string
	Spans []obs.SpanRecord
	Audit *obs.AuditLog
}

// ObsDemo runs a single traced, audited local-data restore and returns
// every observability artifact it produced.
func ObsDemo(env *Env) (*ObsDemoResult, error) {
	p, err := ByName("Sha1")
	if err != nil {
		return nil, err
	}
	prot, err := BuildProtected(env, p, elide.SanitizeOptions{EncryptLocal: true})
	if err != nil {
		return nil, err
	}
	audit := obs.NewAuditLog(0)
	recs, err := tracedLaunch(env, prot, true, audit)
	if err != nil {
		return nil, err
	}
	return &ObsDemoResult{Tree: obs.RenderTree(recs), Spans: recs, Audit: audit}, nil
}
