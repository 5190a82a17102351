package bench

import (
	"context"
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

// ChaosConfig drives the restore-survivability chaos run: Restores full
// protocol runs against Replicas replicated authentication servers while
// the harness kills (and optionally restarts) servers mid-run and injects
// scripted connection faults. The deployment is hybrid — data on the
// servers *and* in the encrypted local file — so every strategy of the
// degradation chain is reachable.
type ChaosConfig struct {
	Program      string        // benchmark program (see All); default "Sha1"
	Replicas     int           // replicated auth servers; default 3
	Restores     int           // total restores to drive; default 48
	Workers      int           // concurrent restore workers; default 8
	FaultEvery   int           // inject a scripted fault on every k-th dial (0 = off); default 5
	RestartDelay time.Duration // how long replica 0 stays dead before restarting; default 500ms, < 0 = never restart
	Timeout      time.Duration // per-restore deadline; default 2m
}

// ChaosResult is the JSON document elide-bench -chaos writes to
// BENCH_chaos.json. Succeeded + TypedFailures + UntypedFailures ==
// Restores; a correct run has UntypedFailures == 0 (every failure is a
// classified, typed error) and WorkloadFailures == 0 (no restore that
// reported success produced wrong code).
type ChaosResult struct {
	Program    string  `json:"program"`
	Replicas   int     `json:"replicas"`
	Restores   int     `json:"restores"`
	Workers    int     `json:"workers"`
	FaultEvery int     `json:"fault_every"`
	WallMs     float64 `json:"wall_ms"`

	Succeeded        int `json:"succeeded"`
	TypedFailures    int `json:"typed_failures"`
	UntypedFailures  int `json:"untyped_failures"`
	WorkloadFailures int `json:"workload_failures"`

	// Per-strategy success counts: which link of the degradation chain
	// produced the bytes.
	SourceSealed int `json:"source_sealed"`
	SourceServer int `json:"source_server"`
	SourceLocal  int `json:"source_local"`

	Kills        int    `json:"kills"`
	Restarts     int    `json:"restarts"`
	Failovers    uint64 `json:"failovers"`
	BreakerTrips uint64 `json:"breaker_trips"`
	SessionsLost uint64 `json:"sessions_lost"`
	RetriedRuns  uint64 `json:"retried_runs"` // protocol runs beyond each restore's first

	RestoreLatency LatencySummary    `json:"restore_latency"`
	Counters       map[string]uint64 `json:"counters"`
}

func (r *ChaosResult) String() string {
	return fmt.Sprintf(
		"chaos bench: %s, %d replicas, %d restores (%d workers, fault every %d dials): "+
			"%d ok / %d typed / %d untyped failures in %.1f ms\n"+
			"  sources: %d server, %d local, %d sealed; %d kills, %d restarts, "+
			"%d failovers, %d breaker trips, %d sessions lost\n"+
			"  restore p50 %.0fµs  p90 %.0fµs  p99 %.0fµs",
		r.Program, r.Replicas, r.Restores, r.Workers, r.FaultEvery,
		r.Succeeded, r.TypedFailures, r.UntypedFailures, r.WallMs,
		r.SourceServer, r.SourceLocal, r.SourceSealed, r.Kills, r.Restarts,
		r.Failovers, r.BreakerTrips, r.SessionsLost,
		r.RestoreLatency.P50Us, r.RestoreLatency.P90Us, r.RestoreLatency.P99Us)
}

// replica is one auth server the chaos controller can kill and restart.
type replica struct {
	prot *elide.Protected
	env  *Env
	msrv *obs.Registry

	// optsFor, when set, contributes extra server options per (re)start —
	// the churn harness wires gossip here, where the bound address that
	// the options need is finally known.
	optsFor func(addr string) []elide.ServerOption

	mu     sync.Mutex
	addr   string
	srv    *elide.Server
	cancel context.CancelFunc
	served chan error
}

// start listens (reusing the replica's address after a restart) and serves
// until killed.
func (r *replica) start() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	addr := r.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var l net.Listener
	var err error
	// A restart reuses the address the pool already knows; the old socket
	// may linger briefly, so retry the bind.
	for i := 0; i < 20; i++ {
		l, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		return err
	}
	r.addr = l.Addr().String()
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

// kill stops the replica and waits for the server to drain.
func (r *replica) kill() {
	r.mu.Lock()
	cancel, served := r.cancel, r.served
	r.cancel, r.served = nil, nil
	r.mu.Unlock()
	if cancel == nil {
		return
	}
	cancel()
	<-served
}

// ChaosBench provisions the replicated deployment and drives cfg.Restores
// concurrent resilient restores through it while the controller kills
// replica 0 after ~1/3 of the restores have finished (restarting it after
// RestartDelay when set) and kills replica 1 for good after ~2/3. Every
// restore must either succeed — through any strategy in the degradation
// chain — or fail with a typed, classified error; untyped failures are
// counted separately and indicate a survivability bug.
func ChaosBench(env *Env, cfg ChaosConfig) (*ChaosResult, error) {
	if cfg.Program == "" {
		cfg.Program = "Sha1"
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	if cfg.Restores <= 0 {
		cfg.Restores = 48
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.FaultEvery < 0 {
		cfg.FaultEvery = 0
	} else if cfg.FaultEvery == 0 {
		cfg.FaultEvery = 5
	}
	if cfg.RestartDelay == 0 {
		cfg.RestartDelay = 500 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Minute
	}
	p, err := ByName(cfg.Program)
	if err != nil {
		return nil, err
	}
	// Hybrid deployment: the degradation chain's local-file strategy stays
	// reachable when every replica is momentarily unreachable mid-protocol.
	prot, err := BuildProtected(env, p, elide.SanitizeOptions{Hybrid: true})
	if err != nil {
		return nil, err
	}

	serverMetrics := obs.NewRegistry()
	replicas := make([]*replica, cfg.Replicas)
	addrs := make([]string, cfg.Replicas)
	for i := range replicas {
		replicas[i] = &replica{prot: prot, env: env, msrv: serverMetrics}
		if err := replicas[i].start(); err != nil {
			return nil, err
		}
		addrs[i] = replicas[i].addr
	}
	defer func() {
		for _, r := range replicas {
			r.kill()
		}
	}()

	poolMetrics := obs.NewRegistry()
	clientMetrics := obs.NewRegistry()
	runtimeMetrics := obs.NewRegistry()
	chaosMetrics := obs.NewRegistry()

	// Scripted dial faults: every FaultEvery-th connection anywhere in the
	// run dies on its first I/O operation — after the dial succeeded, which
	// is the window ad-hoc kill timing cannot hit deterministically.
	var dials atomic.Int64
	dial := func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		if cfg.FaultEvery > 0 && dials.Add(1)%int64(cfg.FaultEvery) == 0 {
			return elide.NewFaultConn(conn).WithScript(
				elide.FaultAction{Op: elide.OpAny, Fail: true},
			), nil
		}
		return conn, nil
	}

	// One shared endpoint pool for the whole fleet: the machine's view of
	// replica health is collective, so a kill observed by one worker trips
	// the breaker for all of them.
	pool := elide.NewEndpointPool(addrs,
		elide.WithFailoverMetrics(poolMetrics),
		elide.WithBreakerCooldown(200*time.Millisecond),
		elide.WithEndpointClientOptions(
			elide.WithDialer(dial),
			elide.WithClientMetrics(clientMetrics),
			elide.WithRetryBudget(1),
			elide.WithRetryBackoff(10*time.Millisecond, 100*time.Millisecond),
			elide.WithDialTimeout(10*time.Second),
			elide.WithRequestTimeout(30*time.Second),
		),
	)

	var (
		completed atomic.Int64
		kills     atomic.Int64
		restarts  atomic.Int64
	)
	// Chaos controller: kill replica 0 once a third of the restores are
	// done (restart it after RestartDelay when configured); kill replica 1
	// for good at two thirds, leaving one live replica plus local files.
	ctlCtx, ctlStop := context.WithCancel(context.Background())
	defer ctlStop()
	var ctlWG sync.WaitGroup
	ctlWG.Add(1)
	go func() {
		defer ctlWG.Done()
		killed0, killed1 := false, false
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-ctlCtx.Done():
				return
			case <-t.C:
			}
			done := int(completed.Load())
			if !killed0 && done >= cfg.Restores/3 {
				killed0 = true
				replicas[0].kill()
				kills.Add(1)
				if cfg.RestartDelay > 0 {
					delay := cfg.RestartDelay
					ctlWG.Add(1)
					go func() {
						defer ctlWG.Done()
						select {
						case <-ctlCtx.Done():
							return
						case <-time.After(delay):
						}
						if replicas[0].start() == nil {
							restarts.Add(1)
						}
					}()
				}
			}
			if !killed1 && cfg.Replicas > 2 && done >= 2*cfg.Restores/3 {
				killed1 = true
				replicas[1].kill()
				kills.Add(1)
			}
		}
	}()

	type jobResult struct {
		outcome *elide.RestoreOutcome
		err     error
		wlErr   error
	}
	results := make([]jobResult, cfg.Restores)
	jobs := make(chan int)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = runChaosJob(env, prot, p, pool, runtimeMetrics, chaosMetrics, cfg.Timeout)
				completed.Add(1)
			}
		}()
	}
	for i := 0; i < cfg.Restores; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	wall := time.Since(start)
	ctlStop()
	ctlWG.Wait()

	res := &ChaosResult{
		Program:    p.Name,
		Replicas:   cfg.Replicas,
		Restores:   cfg.Restores,
		Workers:    cfg.Workers,
		FaultEvery: cfg.FaultEvery,
		WallMs:     float64(wall.Nanoseconds()) / 1e6,
		Kills:      int(kills.Load()),
		Restarts:   int(restarts.Load()),
	}
	for i := range results {
		r := &results[i]
		switch {
		case r.err == nil && r.wlErr == nil:
			res.Succeeded++
			switch r.outcome.Source {
			case "sealed":
				res.SourceSealed++
			case "local":
				res.SourceLocal++
			default:
				res.SourceServer++
			}
		case r.err == nil:
			res.WorkloadFailures++
		case errors.Is(r.err, elide.ErrRestoreFailed),
			errors.Is(r.err, context.DeadlineExceeded),
			errors.Is(r.err, context.Canceled):
			res.TypedFailures++
		default:
			res.UntypedFailures++
		}
	}

	psnap := poolMetrics.Snapshot()
	csnap := chaosMetrics.Snapshot()
	rsnap := runtimeMetrics.Snapshot()
	res.Failovers = psnap.Counters["failover.switches"]
	res.BreakerTrips = psnap.Counters["failover.breaker_trips"]
	res.SessionsLost = psnap.Counters["failover.session_lost"]
	res.RetriedRuns = rsnap.Counters["restore.retries"]
	res.RestoreLatency = summarize(csnap.Histograms["chaos.restore_ns"])
	res.Counters = map[string]uint64{}
	for _, snap := range []obs.Snapshot{psnap, rsnap, clientMetrics.Snapshot(), serverMetrics.Snapshot()} {
		for k, v := range snap.Counters {
			res.Counters[k] += v
		}
	}
	return res, nil
}

// runChaosJob is one user machine's full flow under chaos: provision a
// platform, build a failover client over the replica pool, drive a
// resilient restore, and verify the restored code actually computes (the
// workload is the last line of defence against a torn restore escaping
// detection).
func runChaosJob(
	env *Env, prot *elide.Protected, p *Program, pool *elide.EndpointPool,
	runtimeMetrics, chaosMetrics *obs.Registry, timeout time.Duration,
) (res struct {
	outcome *elide.RestoreOutcome
	err     error
	wlErr   error
}) {
	defer chaosMetrics.Observe("chaos.restore_ns", time.Now())
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
	res.outcome, res.err = elide.RestoreResilient(ctx, encl, rt, elide.RestoreOptions{
		MaxAttempts: 4,
		Backoff:     25 * time.Millisecond,
	})
	if res.err == nil {
		res.wlErr = p.Workload(host, encl)
	}
	return res
}
