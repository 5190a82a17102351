package bench

import (
	"testing"
	"time"
)

// TestChurnBenchSmoke drives a scaled-down churn run — a gossip fleet
// bootstrapped from one seed, with a kill, a cold-add, and a restart
// under restore load — and asserts the fleet contract: no untyped
// failures, the client pool tracked every membership change, and the
// cold-added member converged on the fleet's resume records and served
// every resume without a single attestation flight.
func TestChurnBenchSmoke(t *testing.T) {
	env := sharedEnv(t)
	cfg := ChurnConfig{
		Replicas:       3,
		Restores:       24,
		Workers:        4,
		Sessions:       6,
		GossipInterval: 15 * time.Millisecond,
		SuspectTimeout: 100 * time.Millisecond,
	}
	if testing.Short() {
		cfg.Replicas = 2
		cfg.Restores = 8
		cfg.Workers = 2
		cfg.Sessions = 4
	}
	res, err := ChurnBench(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.String())
	if res.UntypedFailures != 0 {
		t.Fatalf("%d restores failed with untyped errors", res.UntypedFailures)
	}
	if res.WorkloadFailures != 0 {
		t.Fatalf("%d successful restores computed wrong answers", res.WorkloadFailures)
	}
	if res.Succeeded*4 < res.Restores*3 {
		t.Fatalf("only %d/%d restores succeeded", res.Succeeded, res.Restores)
	}
	if res.Kills != 1 || res.Restarts != 1 || res.Added != 1 {
		t.Fatalf("churn script incomplete: %d kills, %d restarts, %d added",
			res.Kills, res.Restarts, res.Added)
	}
	// The pool must shed the dead member and admit the cold one.
	if res.PoolAfterKill != res.PoolBeforeKill-1 {
		t.Fatalf("pool %d → %d across the kill, want it to shrink by one",
			res.PoolBeforeKill, res.PoolAfterKill)
	}
	if res.PoolAfterAdd != res.PoolAfterKill+1 {
		t.Fatalf("pool %d → %d across the add, want it to grow by one",
			res.PoolAfterKill, res.PoolAfterAdd)
	}
	// The headline: the cold member resumed everything from anti-entropy
	// state alone.
	if res.AddedResumed != res.Sessions {
		t.Fatalf("cold member resumed %d/%d sessions with the original key",
			res.AddedResumed, res.Sessions)
	}
	if res.AddedExtraAttestFlights != 0 {
		t.Fatalf("cold member ran %d attestation flights, want 0", res.AddedExtraAttestFlights)
	}
	if res.ConvergenceRounds <= 0 || res.ConvergenceRounds > 2000 {
		t.Fatalf("implausible convergence: %d gossip rounds", res.ConvergenceRounds)
	}
	if res.MemberSuspects == 0 || res.MemberDeaths == 0 || res.MemberJoins == 0 {
		t.Fatalf("missing churn audit events: %d joins, %d suspects, %d deaths",
			res.MemberJoins, res.MemberSuspects, res.MemberDeaths)
	}
}
