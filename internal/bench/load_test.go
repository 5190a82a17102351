package bench

import (
	"testing"
	"time"
)

// TestLoadBenchSmoke runs a miniature open-loop load test — enough
// arrivals to exercise the arrival scheduler, the protocol-level clients,
// and both protocol modes — and checks the two headline claims: the
// pipelined protocol completes a restore in one network flight, the
// unbundled baseline in three.
func TestLoadBenchSmoke(t *testing.T) {
	env := sharedEnv(t)
	res, err := LoadBench(env, LoadBenchConfig{
		Program:  "Sha1",
		Rate:     200,
		Restores: 30,
		Timeout:  30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []*LoadRunResult{res.Pipelined, res.Unbundled} {
		if run.Completed != run.Offered {
			t.Errorf("%s: %d/%d restores completed (%d errors)",
				run.Protocol, run.Completed, run.Offered, run.Errors)
		}
		if run.Latency.Count == 0 {
			t.Errorf("%s: no latency samples", run.Protocol)
		}
		if len(run.ThroughputRPS) == 0 {
			t.Errorf("%s: empty throughput curve", run.Protocol)
		}
	}
	// The round-trip collapse is the tentpole claim: exactly one wire
	// flight per pipelined restore, exactly three per unbundled restore
	// (attest, REQUEST_META, REQUEST_DATA). Equality, not a bound —
	// retries would push these up and they are disabled here.
	if got := res.Pipelined.FlightsPerRestore; got != 1 {
		t.Errorf("pipelined flights/restore: got %v, want exactly 1", got)
	}
	if got := res.Unbundled.FlightsPerRestore; got != 3 {
		t.Errorf("unbundled flights/restore: got %v, want exactly 3", got)
	}
	if res.Pipelined.ClientCounters["client.bundle_hits"] == 0 {
		t.Error("pipelined run served no requests from the bundle cache")
	}
}
