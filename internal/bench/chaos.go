package bench

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sgxelide/internal/elide"
	"sgxelide/internal/obs"
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
	FaultEvery   int           // inject a scripted fault on every k-th dial; 0 = default 5, < 0 = off
	RestartDelay time.Duration // how long replica 0 stays dead before restarting; default 500ms, < 0 = never restart
	Timeout      time.Duration // per-restore deadline; default 2m
}

// ChaosResult is the JSON document elide-bench -chaos writes to
// BENCH_chaos.json; its Tally classifies every restore.
type ChaosResult struct {
	Program    string  `json:"program"`
	Replicas   int     `json:"replicas"`
	Restores   int     `json:"restores"`
	Workers    int     `json:"workers"`
	FaultEvery int     `json:"fault_every"`
	WallMs     float64 `json:"wall_ms"`

	Tally

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
	pool := elide.NewEndpointPool(addrs, failoverOptions(poolMetrics, clientMetrics, elide.WithDialer(dial))...)

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

	start := time.Now()
	results := driveRestores(cfg.Restores, cfg.Workers, &completed, func() restoreResult {
		return restoreJob(env, prot, p, pool, runtimeMetrics, chaosMetrics, cfg.Timeout)
	})
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
	for _, r := range results {
		if !res.add(r) {
			continue
		}
		switch r.outcome.Source {
		case "sealed":
			res.SourceSealed++
		case "local":
			res.SourceLocal++
		default:
			res.SourceServer++
		}
	}

	res.Counters = map[string]uint64{}
	addCounters(res.Counters, "", poolMetrics, runtimeMetrics, clientMetrics, serverMetrics)
	res.Failovers = res.Counters["failover.switches"]
	res.BreakerTrips = res.Counters["failover.breaker_trips"]
	res.SessionsLost = res.Counters["failover.session_lost"]
	res.RetriedRuns = res.Counters["restore.retries"]
	res.RestoreLatency = summarize(chaosMetrics.Snapshot().Histograms["chaos.restore_ns"])
	return res, nil
}
