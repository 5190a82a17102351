package bench

import (
	"bytes"
	"context"
	"crypto/subtle"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sgxelide/internal/elide"
	"sgxelide/internal/obs"
	"sgxelide/internal/sdk"
	"sgxelide/internal/sgx"
)

// The fleet scenarios (chaos, churn, resume) share one fixture, kept here
// as plain functions: replicas a scenario can kill and restart, the
// failover-pool options every simulated user machine dials through, the
// worker pool that drives restores and the tally of their outcomes, the
// session attest and resume steps, and the counter merge behind every
// scenario's JSON "counters" map.

// LatencySummary is the machine-readable slice of an obs histogram, in
// microseconds (the paper reports restore times in ms; transport
// operations land in the µs–ms range).
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P90Us  float64 `json:"p90_us"`
	P99Us  float64 `json:"p99_us"`
	MinUs  float64 `json:"min_us"`
	MaxUs  float64 `json:"max_us"`
}

func summarize(h obs.HistogramSnapshot) LatencySummary {
	us := func(ns float64) float64 { return ns / 1e3 }
	return LatencySummary{
		Count:  h.Count,
		MeanUs: us(float64(h.Mean().Nanoseconds())),
		P50Us:  us(float64(h.P50Nanos)),
		P90Us:  us(float64(h.P90Nanos)),
		P99Us:  us(float64(h.P99Nanos)),
		MinUs:  us(float64(h.MinNanos)),
		MaxUs:  us(float64(h.MaxNanos)),
	}
}

// replica is one auth server a scenario can kill and restart.
type replica struct {
	prot *elide.Protected
	env  *Env
	msrv *obs.Registry

	// optsFor, when set, contributes extra server options per (re)start —
	// the churn and resume harnesses wire WithFleet here, where the bound
	// address the member advertises is finally known.
	optsFor func(addr string) []elide.ServerOption

	mu     sync.Mutex
	addr   string
	l      net.Listener // bound by listen, handed to the server by start
	srv    *elide.Server
	cancel context.CancelFunc
	served chan error
}

// listen binds the replica's address without serving yet: a fresh port
// the first time, the same one after a restart. Replicas that must know
// each other's address are all bound before any of them starts.
func (r *replica) listen() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bind()
}

// bind is listen with r.mu held; an address already bound is kept.
func (r *replica) bind() error {
	if r.l != nil {
		return nil
	}
	addr := r.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	// A restart reuses the address the pool already knows; the old socket
	// may linger briefly, so retry the bind.
	var err error
	for i := 0; i < 20; i++ {
		if r.l, err = net.Listen("tcp", addr); err == nil {
			r.addr = r.l.Addr().String()
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return err
}

// start binds (unless listen already did) and serves until killed.
func (r *replica) start() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.bind(); err != nil {
		return err
	}
	l := r.l
	r.l = nil
	// A short drain keeps kills abrupt — that is the point of the exercise.
	opts := []elide.ServerOption{
		elide.WithServerMetrics(r.msrv),
		elide.WithDrainTimeout(100 * time.Millisecond),
	}
	if r.optsFor != nil {
		opts = append(opts, r.optsFor(r.addr)...)
	}
	srv, err := r.prot.NewServerFor(r.env.CA, opts...)
	if err != nil {
		_ = l.Close() // listener never served; nothing depends on the close
		return err
	}
	r.srv = srv
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	r.served = make(chan error, 1)
	served := r.served
	go func() { served <- srv.Serve(ctx, l) }()
	return nil
}

// server returns the currently serving *elide.Server (the latest start's).
func (r *replica) server() *elide.Server {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.srv
}

// kill stops the replica and waits for the server to drain. A replica
// that was bound but never started just releases its address.
func (r *replica) kill() {
	r.mu.Lock()
	cancel, served, l := r.cancel, r.served, r.l
	r.cancel, r.served, r.l = nil, nil, nil
	r.mu.Unlock()
	if l != nil {
		_ = l.Close() // never served; nothing depends on the close
	}
	if cancel == nil {
		return
	}
	cancel()
	<-served
}

// failoverOptions is the endpoint-pool configuration of every fleet
// scenario: a short breaker cooldown, a retry budget of 1 with a short
// backoff — two passes over the pool, each trying every admitted endpoint
// once — and deadlines generous enough for an oversubscribed box. extra
// rides along to every endpoint's client (chaos adds its fault dialer).
func failoverOptions(poolMetrics, clientMetrics *obs.Registry, extra ...elide.ClientOption) []elide.FailoverOption {
	clientOpts := append([]elide.ClientOption{
		elide.WithClientMetrics(clientMetrics),
		elide.WithRetryBudget(1),
		elide.WithRetryBackoff(10*time.Millisecond, 100*time.Millisecond),
		elide.WithDialTimeout(10 * time.Second),
		elide.WithRequestTimeout(30 * time.Second),
	}, extra...)
	return []elide.FailoverOption{
		elide.WithFailoverMetrics(poolMetrics),
		elide.WithBreakerCooldown(200 * time.Millisecond),
		elide.WithEndpointClientOptions(clientOpts...),
	}
}

// restoreResult is one simulated user machine's restore: the outcome, the
// restore's error, and the workload's verdict on the restored code.
type restoreResult struct {
	outcome *elide.RestoreOutcome
	err     error
	wlErr   error
}

// driveRestores runs n restore jobs on workers goroutines and returns
// their results in job order. completed counts finished jobs so a
// controller can gate fleet changes on restore progress.
func driveRestores(n, workers int, completed *atomic.Int64, job func() restoreResult) []restoreResult {
	results := make([]restoreResult, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = job()
				completed.Add(1)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}

// restoreJob is one user machine's full flow through a fleet: provision a
// platform, build a failover client over the shared endpoint pool, drive
// a resilient restore, and verify the restored code actually computes
// (the workload is the last line of defence against a torn restore
// escaping detection). Its latency lands in restoreMetrics as
// chaos.restore_ns.
func restoreJob(
	env *Env, prot *elide.Protected, p *Program, pool *elide.EndpointPool,
	runtimeMetrics, restoreMetrics *obs.Registry, timeout time.Duration,
) (res restoreResult) {
	defer restoreMetrics.Observe("chaos.restore_ns", time.Now())
	platform, err := sgx.NewPlatform(sgx.Config{}, env.CA)
	if err != nil {
		res.err = err
		return res
	}
	host := sdk.NewHost(platform)
	host.Metrics = runtimeMetrics
	// The pool (breakers, health) is fleet-shared; the client (session,
	// channel binding) is per-restore.
	fc := elide.NewFailoverClientFromPool(pool)
	defer fc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	encl, rt, err := prot.LaunchContext(ctx, host, fc, prot.LocalFiles())
	if err != nil {
		res.err = err
		return res
	}
	defer encl.Destroy()
	res.outcome, res.err = elide.RestoreResilient(ctx, encl, rt, 0)
	if res.err == nil {
		res.wlErr = p.Workload(host, encl)
	}
	return res
}

// Tally classifies a fleet scenario's restores: Succeeded +
// TypedFailures + UntypedFailures + WorkloadFailures == Restores. A
// correct run has UntypedFailures == 0 (every failure is a classified,
// typed error) and WorkloadFailures == 0 (no restore that reported
// success produced wrong code).
type Tally struct {
	Succeeded        int `json:"succeeded"`
	TypedFailures    int `json:"typed_failures"`
	UntypedFailures  int `json:"untyped_failures"`
	WorkloadFailures int `json:"workload_failures"`
}

// add classifies one restore and reports whether it succeeded.
func (t *Tally) add(r restoreResult) bool {
	switch {
	case r.err == nil && r.wlErr == nil:
		t.Succeeded++
		return true
	case r.err == nil:
		t.WorkloadFailures++
	case errors.Is(r.err, elide.ErrRestoreFailed),
		errors.Is(r.err, context.DeadlineExceeded),
		errors.Is(r.err, context.Canceled):
		t.TypedFailures++
	default:
		t.UntypedFailures++
	}
	return false
}

// addCounters sums every counter of regs into into, each name prefixed.
func addCounters(into map[string]uint64, prefix string, regs ...*obs.Registry) {
	for _, r := range regs {
		for k, v := range r.Snapshot().Counters {
			into[prefix+k] += v
		}
	}
}

// resumeSession is one client's channel state carried across a kill or a
// fleet change.
type resumeSession struct {
	priv, pub []byte
	quote     *sgx.Quote
	serverPub []byte
}

// attestSession establishes one session on addr: a fresh ECDH keypair, a
// quote binding it, and a full attestation.
func attestSession(ctx context.Context, addr string, quoter *quoteFactory, timeout time.Duration) (resumeSession, error) {
	priv, pub, err := sdk.GenerateECDHKeypair()
	if err != nil {
		return resumeSession{}, err
	}
	q, err := quoter.quoteFor(pub)
	if err != nil {
		return resumeSession{}, err
	}
	c := elide.NewTCPClient(addr,
		elide.WithDialTimeout(timeout),
		elide.WithRequestTimeout(timeout))
	defer func() { _ = c.Close() }()
	spub, err := c.Attest(ctx, q, pub)
	if err != nil {
		return resumeSession{}, err
	}
	return resumeSession{priv: priv, pub: pub, quote: q, serverPub: spub}, nil
}

// resumeOn replays the session's handshake against addr, then proves the
// channel works with a REQUEST_META round trip. resumed reports whether
// addr answered with the original server key rather than silently
// re-attesting; took times the handshake alone.
func (ss *resumeSession) resumeOn(ctx context.Context, addr string, wantMeta []byte, timeout time.Duration) (resumed bool, took time.Duration, err error) {
	c := elide.NewTCPClient(addr,
		elide.WithDialTimeout(timeout),
		elide.WithRequestTimeout(timeout))
	defer func() { _ = c.Close() }()
	t0 := time.Now()
	spub, err := c.ResumeAttest(ctx, ss.quote, ss.pub)
	if err != nil {
		return false, 0, fmt.Errorf("resume: %w", err)
	}
	took = time.Since(t0)
	// Whatever key the replica answered with, the channel must work: a
	// resumed session reuses the old key, a downgraded one derives a fresh
	// one — a torn state that does neither is a harness bug.
	key, err := sdk.DeriveChannelKey(ss.priv, spub)
	if err != nil {
		return false, took, err
	}
	defer sdk.Wipe(key)
	enc, err := elide.ChannelSeal(key, []byte{elide.RequestMeta})
	if err != nil {
		return false, took, err
	}
	resp, err := c.Request(ctx, enc)
	if err != nil {
		return false, took, fmt.Errorf("post-resume request: %w", err)
	}
	meta, err := elide.ChannelOpen(key, resp)
	if err != nil {
		return false, took, err
	}
	defer sdk.Wipe(meta)
	if subtle.ConstantTimeCompare(meta, wantMeta) != 1 {
		return false, took, fmt.Errorf("post-resume request returned wrong metadata")
	}
	return bytes.Equal(spub, ss.serverPub), took, nil
}

// waitCounterAtLeast polls a registry counter until it reaches want.
func waitCounterAtLeast(m *obs.Registry, name string, want uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for m.Counter(name).Load() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("counter %s = %d, want >= %d", name, m.Counter(name).Load(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}
