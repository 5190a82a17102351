package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"sgxelide/internal/elide"
	"sgxelide/internal/obs"
	"sgxelide/internal/sdk"
	"sgxelide/internal/sgx"
)

// LoadBenchConfig drives the open-loop load benchmark: Restores protocol
// runs arrive at a fixed Rate against one TCP authentication server,
// regardless of how fast earlier runs complete. Open-loop arrival is the
// point — a closed loop (start the next restore when the last returns)
// self-throttles exactly when the server slows down, hiding the latency
// the paper's users would actually see.
//
// Each arrival is a full protocol run over its own TCP connection —
// attest with a platform-signed quote, derive the channel key, fetch
// metadata and data — but driven by a Go protocol client rather than an
// enclave ecall, so one process can offer tens of thousands of restores.
// The enclave is loaded once, for quote generation.
type LoadBenchConfig struct {
	Program       string        // benchmark name (see All); default "Sha1"
	Rate          float64       // arrivals per second; default 500
	Restores      int           // total arrivals per protocol run; default 10000
	MaxSessions   int           // server concurrent-session cap; default 1024
	Timeout       time.Duration // per-restore deadline; default 30s
	SkipUnbundled bool          // measure only the pipelined protocol
}

// LoadRunResult is one protocol variant's slice of the load benchmark.
type LoadRunResult struct {
	Protocol  string  `json:"protocol"` // "pipelined" or "unbundled"
	Offered   int     `json:"offered"`
	Completed int     `json:"completed"`
	Errors    int     `json:"errors"`
	WallMs    float64 `json:"wall_ms"`

	// AchievedRPS is completions over the whole run wall time; under an
	// overloaded server it falls below the offered rate.
	AchievedRPS float64 `json:"achieved_rps"`

	// FlightsPerRestore is the mean network round trips one restore took
	// (client.flights / completed): the pipelined protocol's headline
	// number is 1, the unbundled baseline's is 3 (attest, meta, data).
	FlightsPerRestore float64 `json:"flights_per_restore"`

	Latency LoadLatency `json:"latency"`

	// ThroughputRPS is the completion rate per one-second bucket across
	// the run — the throughput curve.
	ThroughputRPS []float64 `json:"throughput_rps"`

	Overloaded     uint64            `json:"overloaded"` // runs shed by server backpressure
	ClientCounters map[string]uint64 `json:"client_counters"`
	ServerCounters map[string]uint64 `json:"server_counters"`

	// PhaseLatency attributes latency per protocol phase per hop
	// ("client" and "server"), from the span records both sides' tracers
	// retained. At high restore counts this is a recent-window sample:
	// each hop's ring holds the last obs.DefaultSpanRing completed spans.
	PhaseLatency map[string]map[string]LatencySummary `json:"phase_latency,omitempty"`
}

// LoadLatency is the end-to-end restore latency distribution, in
// microseconds, measured from arrival (not dial: queueing delay inside
// the client counts, as it would for a user).
type LoadLatency struct {
	LatencySummary
	P999Us float64 `json:"p999_us"`
}

// LoadBenchResult is the JSON document elide-bench writes to
// BENCH_load.json.
type LoadBenchResult struct {
	Program     string  `json:"program"`
	RateRPS     float64 `json:"offered_rate_rps"`
	Restores    int     `json:"restores"`
	MaxSessions int     `json:"max_sessions"`

	Pipelined *LoadRunResult `json:"pipelined"`
	Unbundled *LoadRunResult `json:"unbundled,omitempty"`

	// P50SpeedupX is unbundled p50 latency over pipelined p50 latency —
	// the round-trip collapse measured, not asserted.
	P50SpeedupX float64 `json:"p50_speedup_x,omitempty"`
}

func (r *LoadBenchResult) String() string {
	line := func(run *LoadRunResult) string {
		return fmt.Sprintf(
			"  %-9s %d/%d ok (%d err, %d shed) in %.0f ms: %.0f rps, %.2f flights/restore, p50 %.0fµs p99 %.0fµs",
			run.Protocol, run.Completed, run.Offered, run.Errors, run.Overloaded, run.WallMs,
			run.AchievedRPS, run.FlightsPerRestore, run.Latency.P50Us, run.Latency.P99Us)
	}
	s := fmt.Sprintf("load bench: %s, %d restores offered at %.0f rps (cap %d)\n%s",
		r.Program, r.Restores, r.RateRPS, r.MaxSessions, line(r.Pipelined))
	if r.Unbundled != nil {
		s += "\n" + line(r.Unbundled)
		s += fmt.Sprintf("\n  pipelined p50 speedup: %.2fx", r.P50SpeedupX)
	}
	return s
}

// LoadBench builds one protected program, serves it over TCP, and offers
// cfg.Restores protocol runs at cfg.Rate arrivals/second — once with the
// pipelined (ProtoV1) protocol and, unless SkipUnbundled, once unbundled
// (ProtoUnbundled, one flight per step) against the same server, so the
// two runs compare round-trip counts and latency under identical load.
func LoadBench(env *Env, cfg LoadBenchConfig) (*LoadBenchResult, error) {
	if cfg.Program == "" {
		cfg.Program = "Sha1"
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 500
	}
	if cfg.Restores <= 0 {
		cfg.Restores = 10000
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 1024
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	p, err := ByName(cfg.Program)
	if err != nil {
		return nil, err
	}
	prot, err := BuildProtected(env, p, elide.SanitizeOptions{})
	if err != nil {
		return nil, err
	}

	// One enclave load supplies quotes for every simulated machine: the
	// quote binds the per-run ECDH key through report data, so each run
	// still produces its own fresh quote, but over the same measurement.
	quoter, err := newQuoteFactory(env, prot)
	if err != nil {
		return nil, err
	}

	res := &LoadBenchResult{
		Program:     p.Name,
		RateRPS:     cfg.Rate,
		Restores:    cfg.Restores,
		MaxSessions: cfg.MaxSessions,
	}
	res.Pipelined, err = loadRun(env, prot, quoter, cfg, elide.ProtoV1)
	if err != nil {
		return nil, err
	}
	if !cfg.SkipUnbundled {
		res.Unbundled, err = loadRun(env, prot, quoter, cfg, elide.ProtoUnbundled)
		if err != nil {
			return nil, err
		}
		if res.Pipelined.Latency.P50Us > 0 {
			res.P50SpeedupX = res.Unbundled.Latency.P50Us / res.Pipelined.Latency.P50Us
		}
	}
	return res, nil
}

// quoteFactory mints platform-signed quotes binding caller-supplied ECDH
// public keys to the protected program's measurement.
type quoteFactory struct {
	host *sdk.Host
	encl *sdk.Enclave
}

func newQuoteFactory(env *Env, prot *elide.Protected) (*quoteFactory, error) {
	// The enclave is loaded only for report generation; its runtime client
	// never speaks (the load clients below drive the protocol directly).
	srv, err := prot.NewServerFor(env.CA)
	if err != nil {
		return nil, err
	}
	encl, _, err := prot.Launch(env.Host, &elide.DirectClient{Session: srv.NewSession()}, prot.LocalFiles())
	if err != nil {
		return nil, err
	}
	return &quoteFactory{host: env.Host, encl: encl}, nil
}

// quoteFor produces a fresh quote whose report data binds pub.
func (q *quoteFactory) quoteFor(pub []byte) (*sgx.Quote, error) {
	var rdata [sgx.ReportDataSize]byte
	binding := sha256.Sum256(pub)
	copy(rdata[:], binding[:])
	report, err := q.host.Platform.EReport(q.encl.Encl, sgx.QETargetInfo(), rdata)
	if err != nil {
		return nil, err
	}
	return q.host.Platform.QuoteReport(report)
}

// loadRun offers cfg.Restores arrivals at cfg.Rate against a fresh server
// with the given protocol version and collects one LoadRunResult.
func loadRun(env *Env, prot *elide.Protected, quoter *quoteFactory, cfg LoadBenchConfig, proto uint8) (*LoadRunResult, error) {
	serverMetrics := obs.NewRegistry()
	clientMetrics := obs.NewRegistry()
	clientTracer := obs.NewTracer(0)
	clientTracer.SetService("client")
	serverTracer := obs.NewTracer(0)
	serverTracer.SetService("server")
	srv, err := prot.NewServerFor(env.CA,
		elide.WithMaxSessions(cfg.MaxSessions),
		elide.WithServerMetrics(serverMetrics),
		elide.WithServerTracer(serverTracer),
	)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, l) }()

	name := "unbundled"
	if proto >= elide.ProtoV1 {
		name = "pipelined"
	}
	run := &LoadRunResult{Protocol: name, Offered: cfg.Restores}
	wantMeta := prot.Meta.Marshal()

	latency := obs.NewHistogram()
	injectWall := time.Duration(float64(cfg.Restores)/cfg.Rate*float64(time.Second)) + cfg.Timeout
	start := time.Now()
	completions := obs.NewSeries(start, int(injectWall/time.Second)+1, time.Second)

	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		completed  int
		failures   int
		overloaded int
		firstErr   error
	)
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	for i := 0; i < cfg.Restores; i++ {
		// Open loop: arrival i fires at start + i*interval whether or not
		// earlier arrivals have finished.
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			arrived := time.Now()
			err := oneProtocolRestore(env, quoter, l.Addr().String(), clientMetrics, clientTracer, cfg.Timeout, proto, wantMeta)
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				completed++
				latency.Observe(time.Since(arrived))
				completions.Observe()
				return
			}
			failures++
			if errors.Is(err, elide.ErrOverloaded) {
				overloaded++
			} else if firstErr == nil {
				firstErr = err
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	cancel()
	if err := <-served; err != nil && !errors.Is(err, elide.ErrServerClosed) {
		return nil, err
	}
	if completed == 0 {
		return nil, fmt.Errorf("bench: no %s restore completed: %v", name, firstErr)
	}
	// Failures under overload are the benchmark's subject, not a harness
	// error; anything else (first occurrence) is.
	if firstErr != nil {
		return nil, fmt.Errorf("bench: %s load run: %w", name, firstErr)
	}

	run.Completed = completed
	run.Errors = failures
	run.Overloaded = uint64(overloaded)
	run.WallMs = float64(wall.Nanoseconds()) / 1e6
	run.AchievedRPS = float64(completed) / wall.Seconds()
	csnap := clientMetrics.Snapshot()
	ssnap := serverMetrics.Snapshot()
	if flights := csnap.Counters["client.flights"]; completed > 0 {
		run.FlightsPerRestore = float64(flights) / float64(completed)
	}
	hsnap := latency.Snapshot()
	run.Latency = LoadLatency{
		LatencySummary: summarize(hsnap),
		P999Us:         float64(hsnap.Quantile(0.999).Nanoseconds()) / 1e3,
	}
	// Trim trailing empty buckets so the curve ends where the run did.
	rates := completions.Rates()
	for len(rates) > 0 && rates[len(rates)-1] == 0 {
		rates = rates[:len(rates)-1]
	}
	run.ThroughputRPS = rates
	run.ClientCounters = csnap.Counters
	run.ServerCounters = ssnap.Counters
	run.PhaseLatency = phaseLatency(append(clientTracer.Completed(), serverTracer.Completed()...))
	return run, nil
}

// hopHistograms accumulates latency samples per hop ("client" or
// "server") and span name.
type hopHistograms map[string]map[string]*obs.Histogram

// observe adds one sample; an untagged hop counts as the client.
func (h hopHistograms) observe(svc, name string, d time.Duration) {
	if svc == "" {
		svc = "client"
	}
	m := h[svc]
	if m == nil {
		m = make(map[string]*obs.Histogram)
		h[svc] = m
	}
	hist := m[name]
	if hist == nil {
		hist = obs.NewHistogram()
		m[name] = hist
	}
	hist.Observe(d)
}

// summaries summarizes every histogram, keyed like h.
func (h hopHistograms) summaries() map[string]map[string]LatencySummary {
	out := make(map[string]map[string]LatencySummary, len(h))
	for svc, m := range h {
		sm := make(map[string]LatencySummary, len(m))
		for name, hist := range m {
			sm[name] = summarize(hist.Snapshot())
		}
		out[svc] = sm
	}
	return out
}

// phaseLatency summarizes span durations per name per hop from merged
// trace records, one sample per span.
func phaseLatency(recs []obs.SpanRecord) map[string]map[string]LatencySummary {
	h := hopHistograms{}
	for _, r := range recs {
		h.observe(r.Svc, r.Name, r.Duration())
	}
	return h.summaries()
}

// oneProtocolRestore is one simulated user machine's restore: fresh ECDH
// keypair, fresh quote, own TCP connection, full protocol, results
// verified against the deployment's real metadata.
func oneProtocolRestore(env *Env, quoter *quoteFactory, addr string, metrics *obs.Registry, tracer *obs.Tracer, timeout time.Duration, proto uint8, wantMeta []byte) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	// One root span per simulated machine: the transport's attest/request
	// spans parent into it, and the handshake carries its trace to the
	// server, so both hops' rings attribute this restore to one trace.
	root := tracer.Start("restore")
	defer root.End()
	ctx = obs.ContextWithSpan(ctx, root)
	priv, pub, err := sdk.GenerateECDHKeypair()
	if err != nil {
		return err
	}
	quote, err := quoter.quoteFor(pub)
	if err != nil {
		return err
	}
	client := elide.NewTCPClient(addr,
		elide.WithProtocolVersion(proto),
		elide.WithClientMetrics(metrics),
		elide.WithDialTimeout(timeout),
		elide.WithRequestTimeout(timeout),
		elide.WithRetryBudget(1), // open loop: a failed arrival is a data point, not a retry loop
	)
	defer func() { _ = client.Close() }()
	spub, err := client.Attest(ctx, quote, pub)
	if err != nil {
		return err
	}
	key, err := sdk.DeriveChannelKey(priv, spub)
	if err != nil {
		return err
	}
	request := func(req byte) ([]byte, error) {
		enc, err := elide.ChannelSeal(key, []byte{req})
		if err != nil {
			return nil, err
		}
		resp, err := client.Request(ctx, enc)
		if err != nil {
			return nil, err
		}
		return elide.ChannelOpen(key, resp)
	}
	meta, err := request(elide.RequestMeta)
	if err != nil {
		return fmt.Errorf("request_meta: %w", err)
	}
	if !bytes.Equal(meta, wantMeta) {
		return fmt.Errorf("request_meta: wrong metadata (%d bytes)", len(meta))
	}
	data, err := request(elide.RequestData)
	if err != nil {
		return fmt.Errorf("request_data: %w", err)
	}
	if len(data) == 0 {
		return fmt.Errorf("request_data: empty payload")
	}
	return nil
}
