package bench

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"sgxelide/internal/elide"
	"sgxelide/internal/obs"
)

// ChurnConfig drives the gossip-fleet churn run: Restores full restores
// flow through a fleet of Replicas members (every one seeded with only
// replica 0 — bootstrap is the mesh's job), while the controller kills a
// member at ~1/4 of the run, cold-adds a brand-new member at ~1/2 (and
// proves it converges on the fleet's resume records without a single
// attestation flight), and restarts the killed member at ~3/4. The client
// endpoint pool tracks the fleet through the membership query the whole
// time.
type ChurnConfig struct {
	Program        string        // benchmark program (see All); default "Sha1"
	Replicas       int           // initial gossip members; default 3, and any value below 2 also becomes 3
	Restores       int           // total restores to drive; default 48
	Workers        int           // concurrent restore workers; default 8
	Sessions       int           // sessions pre-established on replica 0; default 8
	GossipInterval time.Duration // fleet gossip tick; default 25ms
	SuspectTimeout time.Duration // suspicion expiry; default 150ms
	Timeout        time.Duration // per-restore and per-phase deadline; default 2m
}

// ChurnResult is the JSON document elide-bench -churn writes to
// BENCH_churn.json. A correct run has UntypedFailures == 0,
// AddedExtraAttestFlights == 0 (the cold replica resumed every session
// from anti-entropy state alone), and non-zero suspect/dead/join audit
// counts for the churn the controller inflicted.
type ChurnResult struct {
	Program  string  `json:"program"`
	Replicas int     `json:"replicas"`
	Restores int     `json:"restores"`
	Workers  int     `json:"workers"`
	Sessions int     `json:"sessions"`
	WallMs   float64 `json:"wall_ms"`

	Tally

	Kills    int `json:"kills"`
	Restarts int `json:"restarts"`
	Added    int `json:"added"`

	// Client pool size as the fleet view changed: full fleet, after the
	// kill was gossiped, after the cold member joined.
	PoolBeforeKill int `json:"pool_before_kill"`
	PoolAfterKill  int `json:"pool_after_kill"`
	PoolAfterAdd   int `json:"pool_after_add"`

	// Cold-added member: how long until it held every pre-established
	// session record (anti-entropy), and what it cost to resume them
	// (each resume is proven with a REQUEST_META round trip).
	ConvergenceMs           float64 `json:"convergence_ms"`
	ConvergenceRounds       int     `json:"convergence_rounds"`
	AddedResumed            int     `json:"added_resumed"`
	AddedExtraAttestFlights uint64  `json:"added_extra_attest_flights"`

	MemberJoins    uint64 `json:"member_joins"`
	MemberSuspects uint64 `json:"member_suspects"`
	MemberDeaths   uint64 `json:"member_deaths"`
	AntiEntropy    uint64 `json:"anti_entropy_syncs"`

	RestoreLatency LatencySummary    `json:"restore_latency"`
	Counters       map[string]uint64 `json:"counters"`
}

func (r *ChurnResult) String() string {
	return fmt.Sprintf(
		"churn bench: %s, %d gossip replicas, %d restores (%d workers): "+
			"%d ok / %d typed / %d untyped failures in %.1f ms\n"+
			"  churn: %d kills, %d restarts, %d added; pool %d → %d → %d\n"+
			"  cold member: converged in %d gossip rounds (%.0f ms), resumed %d/%d sessions "+
			"with %d extra attest flights\n"+
			"  audits: %d joins, %d suspects, %d deaths, %d anti-entropy\n"+
			"  restore p50 %.0fµs  p90 %.0fµs  p99 %.0fµs",
		r.Program, r.Replicas, r.Restores, r.Workers,
		r.Succeeded, r.TypedFailures, r.UntypedFailures, r.WallMs,
		r.Kills, r.Restarts, r.Added, r.PoolBeforeKill, r.PoolAfterKill, r.PoolAfterAdd,
		r.ConvergenceRounds, r.ConvergenceMs, r.AddedResumed, r.Sessions,
		r.AddedExtraAttestFlights,
		r.MemberJoins, r.MemberSuspects, r.MemberDeaths, r.AntiEntropy,
		r.RestoreLatency.P50Us, r.RestoreLatency.P90Us, r.RestoreLatency.P99Us)
}

// ChurnBench provisions the gossip fleet and drives the run.
func ChurnBench(env *Env, cfg ChurnConfig) (*ChurnResult, error) {
	if cfg.Program == "" {
		cfg.Program = "Sha1"
	}
	if cfg.Replicas < 2 {
		cfg.Replicas = 3
	}
	if cfg.Restores <= 0 {
		cfg.Restores = 48
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Sessions <= 0 {
		cfg.Sessions = 8
	}
	if cfg.GossipInterval <= 0 {
		cfg.GossipInterval = 25 * time.Millisecond
	}
	if cfg.SuspectTimeout <= 0 {
		cfg.SuspectTimeout = 150 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Minute
	}
	p, err := ByName(cfg.Program)
	if err != nil {
		return nil, err
	}
	prot, err := BuildProtected(env, p, elide.SanitizeOptions{Hybrid: true})
	if err != nil {
		return nil, err
	}
	quoter, err := newQuoteFactory(env, prot)
	if err != nil {
		return nil, err
	}

	fleetKey := bytes.Repeat([]byte{0xC4}, 32)
	fleetAudit := obs.NewAuditLog(0)

	// Replica 0 is the lone seed; every other member bootstraps the full
	// mesh from it. The closure captures seed0 by pointer because replica
	// 0's address is only known once its listener is bound.
	var seed0 string
	gossipFor := func(addr string) []elide.ServerOption {
		seeds := []string{}
		if seed0 != "" && seed0 != addr {
			seeds = append(seeds, seed0)
		}
		return []elide.ServerOption{
			elide.WithServerAudit(fleetAudit),
			elide.WithFleet(fleetKey, addr, seeds...),
			elide.WithGossipInterval(cfg.GossipInterval),
			elide.WithSuspectTimeout(cfg.SuspectTimeout),
		}
	}

	replicas := make([]*replica, cfg.Replicas)
	fleetMetrics := make([]*obs.Registry, cfg.Replicas)
	for i := range replicas {
		fleetMetrics[i] = obs.NewRegistry()
		replicas[i] = &replica{prot: prot, env: env, msrv: fleetMetrics[i], optsFor: gossipFor}
		if err := replicas[i].start(); err != nil {
			return nil, err
		}
		if i == 0 {
			seed0 = replicas[0].addr
		}
	}
	addedMetrics := obs.NewRegistry()
	added := &replica{prot: prot, env: env, msrv: addedMetrics, optsFor: gossipFor}
	defer func() {
		for _, r := range replicas {
			r.kill()
		}
		added.kill()
	}()

	// Wait for the mesh to self-assemble from the single seed before any
	// load: every member must see every other member.
	memberCtx, memberCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer memberCancel()
	if err := waitFleetView(memberCtx, replicas[0].addr, cfg.Replicas); err != nil {
		return nil, fmt.Errorf("bench: mesh bootstrap: %w", err)
	}

	poolMetrics := obs.NewRegistry()
	clientMetrics := obs.NewRegistry()
	runtimeMetrics := obs.NewRegistry()
	churnMetrics := obs.NewRegistry()
	clientOpts := failoverOptions(poolMetrics, clientMetrics)
	addrs := make([]string, 0, cfg.Replicas)
	for _, r := range replicas {
		addrs = append(addrs, r.addr)
	}
	pool := elide.NewEndpointPool(addrs, clientOpts...)
	if err := pool.SyncMembership(memberCtx); err != nil {
		return nil, fmt.Errorf("bench: initial membership sync: %w", err)
	}
	watchCtx, watchStop := context.WithCancel(context.Background())
	defer watchStop()
	pool.WatchMembership(watchCtx, cfg.GossipInterval)

	// Pre-establish the sessions the cold-added member must later resume
	// without re-attesting, and wait for the push layer to fan them out.
	// The attest and resume phases each get cfg.Timeout from their own
	// start: the resume phase runs only after the whole restore phase.
	sessions := make([]resumeSession, cfg.Sessions)
	attestCtx, attestCancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer attestCancel()
	for i := range sessions {
		if sessions[i], err = attestSession(attestCtx, replicas[0].addr, quoter, cfg.Timeout); err != nil {
			return nil, fmt.Errorf("bench: session %d attest: %w", i, err)
		}
	}
	for i := 1; i < cfg.Replicas; i++ {
		if err := waitCounterAtLeast(fleetMetrics[i], "server.resume_replicated", uint64(cfg.Sessions), 15*time.Second); err != nil {
			return nil, fmt.Errorf("bench: replica %d: %w", i, err)
		}
	}

	res := &ChurnResult{
		Program:  p.Name,
		Replicas: cfg.Replicas,
		Restores: cfg.Restores,
		Workers:  cfg.Workers,
		Sessions: cfg.Sessions,
	}

	var completed atomic.Int64
	waitCompleted := func(n int) {
		for int(completed.Load()) < n {
			time.Sleep(5 * time.Millisecond)
		}
	}
	poolSize := func() int { return len(pool.Endpoints()) }
	victim := replicas[1]

	// The controller runs the churn script in sequence; each step gates on
	// restore progress so the fleet is under load when it changes shape.
	var ctlErr error
	ctlDone := make(chan struct{})
	go func() {
		defer close(ctlDone)
		ctlErr = func() error {
			// 1/4: kill a member. The fleet must gossip it dead and the
			// client pool must shed the endpoint on its own.
			waitCompleted(cfg.Restores / 4)
			res.PoolBeforeKill = poolSize()
			victim.kill()
			res.Kills++
			if err := waitMemberStatus(replicas[0].addr, victim.addr, elide.MemberDead, 15*time.Second); err != nil {
				return fmt.Errorf("killed member never declared dead: %w", err)
			}
			if err := waitPoolSize(pool, res.PoolBeforeKill-1, 15*time.Second); err != nil {
				return fmt.Errorf("pool kept the dead endpoint: %w", err)
			}
			res.PoolAfterKill = poolSize()

			// 1/2: cold-add a brand-new member seeded with replica 0 only.
			// It must learn the fleet, pull every resume record via
			// anti-entropy, and then resume all the pre-established
			// sessions without one attestation flight.
			waitCompleted(cfg.Restores / 2)
			if err := added.start(); err != nil {
				return fmt.Errorf("cold member start: %w", err)
			}
			res.Added++
			t0 := time.Now()
			deadline := time.Now().Add(30 * time.Second)
			for {
				if srv := added.server(); srv != nil && srv.ResumeLen() >= cfg.Sessions {
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("cold member held %d/%d resume records after 30s",
						added.server().ResumeLen(), cfg.Sessions)
				}
				time.Sleep(2 * time.Millisecond)
			}
			conv := time.Since(t0)
			res.ConvergenceMs = float64(conv.Nanoseconds()) / 1e6
			res.ConvergenceRounds = int(conv/cfg.GossipInterval) + 1
			if err := waitPoolSize(pool, res.PoolAfterKill+1, 15*time.Second); err != nil {
				return fmt.Errorf("pool never admitted the added member: %w", err)
			}
			res.PoolAfterAdd = poolSize()

			// 3/4: the killed member comes back with a fresh incarnation
			// and must out-bid its own death.
			waitCompleted(3 * cfg.Restores / 4)
			if err := victim.start(); err != nil {
				return fmt.Errorf("restart: %w", err)
			}
			res.Restarts++
			if err := waitMemberStatus(replicas[0].addr, victim.addr, elide.MemberAlive, 15*time.Second); err != nil {
				return fmt.Errorf("restarted member never revived: %w", err)
			}
			return nil
		}()
	}()

	start := time.Now()
	results := driveRestores(cfg.Restores, cfg.Workers, &completed, func() restoreResult {
		return restoreJob(env, prot, p, pool, runtimeMetrics, churnMetrics, cfg.Timeout)
	})
	res.WallMs = float64(time.Since(start).Nanoseconds()) / 1e6
	<-ctlDone
	if ctlErr != nil {
		return nil, fmt.Errorf("bench: churn controller: %w", ctlErr)
	}

	// With the workers drained, resume every pre-established session on
	// the cold-added member. It converged mid-run via anti-entropy, so any
	// attestation flight it runs now is a downgrade — the delta must be 0.
	// (Measured post-run because workers land full attests on it through
	// the pool, which would falsely inflate a mid-run reading.)
	attestsBefore := addedMetrics.Counter("server.attest_ok").Load()
	wantMeta := prot.Meta.Marshal()
	resumeCtx, resumeCancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer resumeCancel()
	for i := range sessions {
		resumed, _, err := sessions[i].resumeOn(resumeCtx, added.addr, wantMeta, cfg.Timeout)
		if err != nil {
			return nil, fmt.Errorf("bench: session %d on the added member: %w", i, err)
		}
		if resumed {
			res.AddedResumed++
		}
	}
	res.AddedExtraAttestFlights = addedMetrics.Counter("server.attest_ok").Load() - attestsBefore

	for _, r := range results {
		res.add(r)
	}

	audits := fleetAudit.Counts()
	res.MemberJoins = audits[obs.AuditMemberJoin]
	res.MemberSuspects = audits[obs.AuditMemberSuspect]
	res.MemberDeaths = audits[obs.AuditMemberDead]
	res.AntiEntropy = audits[obs.AuditAntiEntropy]
	res.RestoreLatency = summarize(churnMetrics.Snapshot().Histograms["chaos.restore_ns"])
	res.Counters = map[string]uint64{}
	addCounters(res.Counters, "", append([]*obs.Registry{poolMetrics, clientMetrics,
		runtimeMetrics, addedMetrics}, fleetMetrics...)...)
	return res, nil
}

// waitFleetView polls the membership query on addr until it reports
// want alive members (the querying server included).
func waitFleetView(ctx context.Context, addr string, want int) error {
	for {
		ms, err := queryMembers(ctx, addr)
		if err == nil {
			alive := 0
			for _, m := range ms {
				if m.Status == elide.MemberAlive {
					alive++
				}
			}
			if alive >= want {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fleet view never reached %d alive members: %w", want, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// waitMemberStatus polls addr's fleet view until member reaches st.
func waitMemberStatus(addr, member string, st elide.MemberStatus, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for {
		ms, err := queryMembers(ctx, addr)
		if err == nil {
			for _, m := range ms {
				if m.Addr == member && m.Status == st {
					return nil
				}
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("member %s never reached %s in %s's view", member, st, addr)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func queryMembers(ctx context.Context, addr string) ([]elide.Member, error) {
	c := elide.NewTCPClient(addr,
		elide.WithDialTimeout(2*time.Second),
		elide.WithRequestTimeout(2*time.Second))
	defer func() { _ = c.Close() }()
	return c.Members(ctx)
}

func waitPoolSize(pool *elide.EndpointPool, want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if got := len(pool.Endpoints()); got == want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("pool size %d, want %d", len(pool.Endpoints()), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
