// elide-bench regenerates the SgxElide paper's evaluation: Table 1
// (benchmark and sanitizer statistics), Table 2 (sanitize/restore times,
// mean ± σ over -iters runs), and Figures 3 and 4 (normalized end-to-end
// overhead with remote and local data).
//
// It also runs the fleet scenarios — chaos, churn and failover resume
// against replicated servers — the open-loop load test and the per-phase
// restore breakdown, each writing its result as machine-readable JSON:
//
//	elide-bench -table1 -table2 -fig3 -fig4 -iters 10
//	elide-bench -chaos -replicas 3 -restores 48 -chaos-out BENCH_chaos.json
//	elide-bench -churn -replicas 3 -churn-out BENCH_churn.json
//	elide-bench -resume -resume-sessions 16 -resume-out BENCH_resume.json
//	elide-bench -load -load-rate 500 -load-restores 10000 -load-out BENCH_load.json
//
// -program picks the benchmark program of every scenario; -replicas,
// -restores and -workers size both chaos and churn.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"sgxelide/internal/bench"
	"sgxelide/internal/obs"
)

func main() {
	var (
		t1    = flag.Bool("table1", false, "reproduce Table 1")
		t2    = flag.Bool("table2", false, "reproduce Table 2")
		f3    = flag.Bool("fig3", false, "reproduce Figure 3 (remote data)")
		f4    = flag.Bool("fig4", false, "reproduce Figure 4 (local data)")
		all   = flag.Bool("all", false, "reproduce the tables and figures, and run chaos, churn, resume and phases")
		iters = flag.Int("iters", 10, "runs per measurement (the paper uses 10)")

		program  = flag.String("program", "Sha1", "benchmark program for -chaos, -churn, -resume, -load and -phases")
		replicas = flag.Int("replicas", 3, "server replicas for -chaos; initial gossip members for -churn")
		restores = flag.Int("restores", 48, "total restores for -chaos and -churn")
		workers  = flag.Int("workers", 8, "concurrent restore workers for -chaos and -churn")

		chaos    = flag.Bool("chaos", false, "chaos-test restores against replicated servers with kills, restarts and injected faults")
		chaosOut = flag.String("chaos-out", "BENCH_chaos.json", "JSON output path for -chaos")

		churn         = flag.Bool("churn", false, "churn-test a gossip fleet: kill, cold-add and restart members under restore load")
		churnSessions = flag.Int("churn-sessions", 8, "pre-established sessions the cold member must resume for -churn")
		churnOut      = flag.String("churn-out", "BENCH_churn.json", "JSON output path for -churn")

		resume         = flag.Bool("resume", false, "benchmark failover resume: kill the attested replica, resume every session on a peer, replicated vs unreplicated")
		resumeSessions = flag.Int("resume-sessions", 16, "sessions to establish and resume for -resume")
		resumeOut      = flag.String("resume-out", "BENCH_resume.json", "JSON output path for -resume")

		load         = flag.Bool("load", false, "open-loop load test: offered-rate restores against one server, pipelined vs unbundled")
		loadRate     = flag.Float64("load-rate", 500, "offered arrival rate for -load (restores/second)")
		loadRestores = flag.Int("load-restores", 10000, "total restores offered per protocol for -load")
		loadSessions = flag.Int("load-sessions", 1024, "server session cap for -load")
		loadOnlyV1   = flag.Bool("load-skip-legacy", false, "measure only the pipelined protocol for -load (skip the unbundled baseline)")
		loadOut      = flag.String("load-out", "BENCH_load.json", "JSON output path for -load")

		phases = flag.Bool("phases", false, "measure the per-phase restore latency breakdown")
		phOut  = flag.String("phases-out", "BENCH_restore_phases.json", "JSON output path for -phases")

		obsDemo     = flag.Bool("obs-demo", false, "run one traced+audited restore; write the merged cross-process trace and the audit log as JSONL artifacts and print the span tree")
		obsTraceOut = flag.String("obs-trace-out", "BENCH_trace.jsonl", "merged trace JSONL output path for -obs-demo")
		obsAuditOut = flag.String("obs-audit-out", "BENCH_audit.jsonl", "audit JSONL output path for -obs-demo")

		validateAudit = flag.String("validate-audit", "", "validate an audit JSONL file against the current schema and exit")
	)
	flag.Parse()
	if *all {
		*t1, *t2, *f3, *f4, *chaos, *churn, *resume, *phases = true, true, true, true, true, true, true, true
	}
	if *validateAudit != "" {
		f, err := os.Open(*validateAudit)
		if err != nil {
			fatal(err)
		}
		n, err := obs.ValidateAuditJSONL(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w (%d events valid before the failure)", *validateAudit, err, n))
		}
		fmt.Printf("%s: %d audit events, schema %d, all valid\n", *validateAudit, n, obs.AuditSchema)
		return
	}
	if !*t1 && !*t2 && !*f3 && !*f4 && !*chaos && !*churn && !*resume && !*load && !*phases && !*obsDemo {
		flag.Usage()
		os.Exit(2)
	}

	env, err := bench.NewEnv()
	if err != nil {
		fatal(err)
	}

	if *t1 {
		rows, err := bench.Table1(env)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.RenderTable1(rows))
	}
	if *t2 {
		fmt.Printf("(measuring Table 2, %d iterations per cell...)\n", *iters)
		rows, err := bench.Table2(env, *iters)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.RenderTable2(rows))
	}
	if *f3 {
		fmt.Printf("(measuring Figure 3, %d runs per bar...)\n", *iters)
		rows, err := bench.Figures(env, false, *iters)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.RenderFigure("Figure 3. Overhead with remote data (w/ SgxElide vs w/ SGX).", rows))
	}
	if *f4 {
		fmt.Printf("(measuring Figure 4, %d runs per bar...)\n", *iters)
		rows, err := bench.Figures(env, true, *iters)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.RenderFigure("Figure 4. Overhead with local data (w/ SgxElide vs w/ SGX).", rows))
	}
	if *chaos {
		fmt.Printf("(chaos-testing restores: %d replicas, %d restores, %d workers...)\n",
			*replicas, *restores, *workers)
		res, err := bench.ChaosBench(env, bench.ChaosConfig{
			Program:  *program,
			Replicas: *replicas,
			Restores: *restores,
			Workers:  *workers,
		})
		report(res, err, *chaosOut)
	}
	if *churn {
		fmt.Printf("(churn-testing the gossip fleet: %d members, %d restores, %d workers...)\n",
			*replicas, *restores, *workers)
		res, err := bench.ChurnBench(env, bench.ChurnConfig{
			Program:  *program,
			Replicas: *replicas,
			Restores: *restores,
			Workers:  *workers,
			Sessions: *churnSessions,
		})
		report(res, err, *churnOut)
	}
	if *resume {
		fmt.Printf("(benchmarking failover resume: %d sessions, replicated vs baseline...)\n",
			*resumeSessions)
		res, err := bench.ResumeBench(env, bench.ResumeConfig{
			Program:  *program,
			Sessions: *resumeSessions,
		})
		report(res, err, *resumeOut)
	}
	if *load {
		fmt.Printf("(load-testing the authentication server: %d restores at %.0f rps...)\n",
			*loadRestores, *loadRate)
		res, err := bench.LoadBench(env, bench.LoadBenchConfig{
			Program:       *program,
			Rate:          *loadRate,
			Restores:      *loadRestores,
			MaxSessions:   *loadSessions,
			SkipUnbundled: *loadOnlyV1,
		})
		report(res, err, *loadOut)
	}
	if *phases {
		fmt.Printf("(measuring restore phase breakdown, %d iterations per mode...)\n", *iters)
		res, err := bench.PhasesBench(env, bench.PhasesBenchConfig{
			Program: *program,
			Iters:   *iters,
		})
		report(res, err, *phOut)
	}
	if *obsDemo {
		demo, err := bench.ObsDemo(env)
		if err != nil {
			fatal(err)
		}
		fmt.Println(demo.Tree)
		if err := writeJSONL(*obsTraceOut, func(f *os.File) error {
			enc := json.NewEncoder(f)
			for _, rec := range demo.Spans {
				if err := enc.Encode(rec); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			fatal(err)
		}
		if err := writeJSONL(*obsAuditOut, func(f *os.File) error { return demo.Audit.WriteJSONL(f) }); err != nil {
			fatal(err)
		}
		// Self-check: the artifact this run just wrote must pass the same
		// schema gate CI applies to it.
		f, err := os.Open(*obsAuditOut)
		if err != nil {
			fatal(err)
		}
		n, verr := obs.ValidateAuditJSONL(f)
		f.Close()
		if verr != nil {
			fatal(fmt.Errorf("%s failed schema validation: %w", *obsAuditOut, verr))
		}
		fmt.Printf("wrote %s (%d spans) and %s (%d audit events, schema-valid)\n",
			*obsTraceOut, len(demo.Spans), *obsAuditOut, n)
	}
}

// report prints a scenario's result and writes it to path as indented
// JSON; a scenario error ends the run.
func report(res fmt.Stringer, err error, path string) {
	if err != nil {
		fatal(err)
	}
	fmt.Println(res)
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

// writeJSONL creates path and streams JSONL into it via write.
func writeJSONL(path string, write func(f *os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
