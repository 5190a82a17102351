// elide-bench regenerates the SgxElide paper's evaluation: Table 1
// (benchmark and sanitizer statistics), Table 2 (sanitize/restore times,
// mean ± σ over -iters runs), and Figures 3 and 4 (normalized end-to-end
// overhead with remote and local data).
//
// It can also benchmark the authentication-server transport itself —
// concurrent TCP restores with attest/request latency percentiles — and
// emit the result as machine-readable JSON:
//
//	elide-bench -all
//	elide-bench -table2 -iters 10
//	elide-bench -server -server-clients 16 -server-out BENCH_server.json
//	elide-bench -multi -multi-enclaves 4 -multi-out BENCH_multi.json
//	elide-bench -chaos -chaos-replicas 3 -chaos-out BENCH_chaos.json
//	elide-bench -churn -churn-replicas 3 -churn-out BENCH_churn.json
//	elide-bench -resume -resume-sessions 16 -resume-out BENCH_resume.json
//	elide-bench -load -load-rate 500 -load-restores 10000 -load-out BENCH_load.json
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
		all   = flag.Bool("all", false, "reproduce everything")
		iters = flag.Int("iters", 10, "runs per measurement (the paper uses 10)")

		server      = flag.Bool("server", false, "benchmark the TCP authentication-server transport")
		srvProgram  = flag.String("server-program", "Sha1", "benchmark program for -server")
		srvClients  = flag.Int("server-clients", 16, "concurrent clients for -server")
		srvSessions = flag.Int("server-sessions", 8, "server session cap for -server")
		srvOut      = flag.String("server-out", "BENCH_server.json", "JSON output path for -server")

		multi         = flag.Bool("multi", false, "benchmark multi-enclave serving: N distinct sanitized enclaves against one server")
		multiEnclaves = flag.Int("multi-enclaves", 4, "distinct sanitized enclaves for -multi")
		multiClients  = flag.Int("multi-clients", 4, "concurrent clients per enclave for -multi")
		multiOut      = flag.String("multi-out", "BENCH_multi.json", "JSON output path for -multi")

		chaos         = flag.Bool("chaos", false, "chaos-test restores against replicated servers with kills, restarts and injected faults")
		chaosProgram  = flag.String("chaos-program", "Sha1", "benchmark program for -chaos")
		chaosReplicas = flag.Int("chaos-replicas", 3, "server replicas for -chaos")
		chaosRestores = flag.Int("chaos-restores", 48, "total restores for -chaos")
		chaosWorkers  = flag.Int("chaos-workers", 8, "concurrent restore workers for -chaos")
		chaosOut      = flag.String("chaos-out", "BENCH_chaos.json", "JSON output path for -chaos")

		churn         = flag.Bool("churn", false, "churn-test a gossip fleet: kill, cold-add and restart members under restore load")
		churnProgram  = flag.String("churn-program", "Sha1", "benchmark program for -churn")
		churnReplicas = flag.Int("churn-replicas", 3, "initial gossip members for -churn")
		churnRestores = flag.Int("churn-restores", 48, "total restores for -churn")
		churnWorkers  = flag.Int("churn-workers", 8, "concurrent restore workers for -churn")
		churnSessions = flag.Int("churn-sessions", 8, "pre-established sessions the cold member must resume for -churn")
		churnOut      = flag.String("churn-out", "BENCH_churn.json", "JSON output path for -churn")

		resume         = flag.Bool("resume", false, "benchmark failover resume: kill the attested replica, resume every session on a peer, replicated vs unreplicated")
		resumeProgram  = flag.String("resume-program", "Sha1", "benchmark program for -resume")
		resumeSessions = flag.Int("resume-sessions", 16, "sessions to establish and resume for -resume")
		resumeOut      = flag.String("resume-out", "BENCH_resume.json", "JSON output path for -resume")

		load         = flag.Bool("load", false, "open-loop load test: offered-rate restores against one server, pipelined vs unbundled")
		loadProgram  = flag.String("load-program", "Sha1", "benchmark program for -load")
		loadRate     = flag.Float64("load-rate", 500, "offered arrival rate for -load (restores/second)")
		loadRestores = flag.Int("load-restores", 10000, "total restores offered per protocol for -load")
		loadSessions = flag.Int("load-sessions", 1024, "server session cap for -load")
		loadOnlyV1   = flag.Bool("load-skip-legacy", false, "measure only the pipelined protocol for -load (skip the unbundled baseline)")
		loadOut      = flag.String("load-out", "BENCH_load.json", "JSON output path for -load")

		phases    = flag.Bool("phases", false, "measure the per-phase restore latency breakdown")
		phProgram = flag.String("phases-program", "Sha1", "benchmark program for -phases")
		phOut     = flag.String("phases-out", "BENCH_restore_phases.json", "JSON output path for -phases")
		traceDemo = flag.Bool("trace-demo", false, "run one traced local-data restore and print the span tree")

		obsDemo     = flag.Bool("obs-demo", false, "run one traced+audited restore; write the merged cross-process trace and the audit log as JSONL artifacts and print the span tree")
		obsTraceOut = flag.String("obs-trace-out", "BENCH_trace.jsonl", "merged trace JSONL output path for -obs-demo")
		obsAuditOut = flag.String("obs-audit-out", "BENCH_audit.jsonl", "audit JSONL output path for -obs-demo")

		validateAudit = flag.String("validate-audit", "", "validate an audit JSONL file against the current schema and exit")
	)
	flag.Parse()
	if *all {
		*t1, *t2, *f3, *f4, *server, *multi, *chaos, *churn, *resume, *phases = true, true, true, true, true, true, true, true, true, true
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
	if !*t1 && !*t2 && !*f3 && !*f4 && !*server && !*multi && !*chaos && !*churn && !*resume && !*load && !*phases && !*traceDemo && !*obsDemo {
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
	if *server {
		fmt.Printf("(benchmarking server transport: %d clients, %d-session cap...)\n",
			*srvClients, *srvSessions)
		res, err := bench.ServerBench(env, bench.ServerBenchConfig{
			Program:     *srvProgram,
			Clients:     *srvClients,
			MaxSessions: *srvSessions,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println(res)
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*srvOut, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *srvOut)
	}
	if *multi {
		fmt.Printf("(benchmarking multi-enclave serving: %d enclaves x %d clients...)\n",
			*multiEnclaves, *multiClients)
		res, err := bench.MultiBench(env, bench.MultiBenchConfig{
			Enclaves:   *multiEnclaves,
			ClientsPer: *multiClients,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println(res)
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*multiOut, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *multiOut)
	}
	if *chaos {
		fmt.Printf("(chaos-testing restores: %d replicas, %d restores, %d workers...)\n",
			*chaosReplicas, *chaosRestores, *chaosWorkers)
		res, err := bench.ChaosBench(env, bench.ChaosConfig{
			Program:  *chaosProgram,
			Replicas: *chaosReplicas,
			Restores: *chaosRestores,
			Workers:  *chaosWorkers,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println(res)
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*chaosOut, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *chaosOut)
	}
	if *churn {
		fmt.Printf("(churn-testing the gossip fleet: %d members, %d restores, %d workers...)\n",
			*churnReplicas, *churnRestores, *churnWorkers)
		res, err := bench.ChurnBench(env, bench.ChurnConfig{
			Program:  *churnProgram,
			Replicas: *churnReplicas,
			Restores: *churnRestores,
			Workers:  *churnWorkers,
			Sessions: *churnSessions,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println(res)
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*churnOut, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *churnOut)
	}
	if *resume {
		fmt.Printf("(benchmarking failover resume: %d sessions, replicated vs baseline...)\n",
			*resumeSessions)
		res, err := bench.ResumeBench(env, bench.ResumeConfig{
			Program:  *resumeProgram,
			Sessions: *resumeSessions,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println(res)
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*resumeOut, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *resumeOut)
	}
	if *load {
		fmt.Printf("(load-testing the authentication server: %d restores at %.0f rps...)\n",
			*loadRestores, *loadRate)
		res, err := bench.LoadBench(env, bench.LoadBenchConfig{
			Program:       *loadProgram,
			Rate:          *loadRate,
			Restores:      *loadRestores,
			MaxSessions:   *loadSessions,
			SkipUnbundled: *loadOnlyV1,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println(res)
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*loadOut, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *loadOut)
	}
	if *phases {
		fmt.Printf("(measuring restore phase breakdown, %d iterations per mode...)\n", *iters)
		res, err := bench.PhasesBench(env, bench.PhasesBenchConfig{
			Program: *phProgram,
			Iters:   *iters,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println(res)
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*phOut, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *phOut)
	}
	if *traceDemo {
		tree, err := bench.TraceDemo(env)
		if err != nil {
			fatal(err)
		}
		fmt.Println(tree)
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
