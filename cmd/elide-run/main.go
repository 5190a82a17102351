// elide-run is the user-machine side of the SgxElide CLI flow: it loads a
// sanitized, signed enclave on a simulated SGX platform, connects the
// SgxElide untrusted runtime to the authentication server (TCP or
// in-process), performs the restore, and optionally invokes an ecall.
//
// Full two-process walkthrough:
//
//	evmcc -enclave -elide -edl app.edl -o enclave.so app.c
//	elide-whitelist -o whitelist.json
//	elide-sanitize -whitelist whitelist.json -o build enclave.so
//	elide-sign -key dev.pem -o build/enclave.sigstruct build/sanitized.so
//	elide-run -dir build -edl app.edl -ca machine_ca.pem -emit-server serverfiles
//	elide-server -dir serverfiles -listen 127.0.0.1:7788 &
//	elide-run -dir build -edl app.edl -ca machine_ca.pem -connect 127.0.0.1:7788 \
//	          -ecall ecall_compute -arg 42
//
// The -ca file pins the machine's attestation root across invocations so
// the server started from the emitted files trusts this machine's quotes.
//
// -connect takes one address or a comma-separated fleet: either way the
// runtime dials through a failover pool. For availability, run several
// elide-server replicas from the same emitted directory and hand -connect
// all of them; the runtime circuit-breaks dead endpoints, re-attests on
// failover, and reruns a protocol run whose session was lost:
//
//	elide-server -dir serverfiles -listen 127.0.0.1:7788 &
//	elide-server -dir serverfiles -listen 127.0.0.1:7789 &
//	elide-run -dir build -edl app.edl -ca machine_ca.pem \
//	          -connect 127.0.0.1:7788,127.0.0.1:7789 -ecall ecall_compute -arg 42
package main

import (
	"context"
	"encoding/gob"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"sgxelide/internal/elide"
	"sgxelide/internal/obs"
	"sgxelide/internal/sdk"
	"sgxelide/internal/sgx"
)

func main() {
	var (
		dir         = flag.String("dir", "build", "directory with sanitized.so, enclave.sigstruct, enclave.secret.*")
		edlPath     = flag.String("edl", "", "the application EDL file")
		caPath      = flag.String("ca", "machine_ca.pem", "machine attestation root (created if missing)")
		connect     = flag.String("connect", "", "comma-separated authentication server addresses, dialed as a failover pool (empty = in-process server)")
		emitServer  = flag.String("emit-server", "", "write the server-side files to this directory and exit")
		ecallName   = flag.String("ecall", "", "ecall to invoke after restoring")
		flags       = flag.Uint64("flags", 0, "elide_restore flags (1 = try sealed, 2 = seal after)")
		dialTimeout = flag.Duration("dial-timeout", elide.DefaultDialTimeout, "server connection timeout")
		reqTimeout  = flag.Duration("request-timeout", elide.DefaultRequestTimeout, "per-request timeout on the server channel")
		retries     = flag.Int("retries", elide.DefaultRetryBudget, "passes over the servers after the first before giving up")
		timeout     = flag.Duration("timeout", 0, "overall deadline for the restore (0 = none)")
		traceJSON   = flag.String("trace-json", "", "write the launch trace (one JSON span per line) to this file")
		metricsJSON = flag.String("metrics-json", "", "write the final metrics snapshot to this file")
		auditJSON   = flag.String("audit-json", "", "write the security audit events (one JSON event per line) to this file")
		diagDir     = flag.String("diag-dir", "", "flight recorder: on a terminal restore failure, write a diagnostics bundle (span tree + recent audit events for the failed trace) under this directory")
	)
	var args argList
	flag.Var(&args, "arg", "ecall argument (repeatable)")
	flag.Parse()

	ca, err := sgx.LoadOrCreateCA(*caPath)
	check(err)

	sanitized, err := os.ReadFile(filepath.Join(*dir, elide.FileSanitizedSO))
	check(err)
	metaBlob, err := os.ReadFile(filepath.Join(*dir, elide.FileSecretMeta))
	check(err)
	meta, err := elide.UnmarshalMeta(metaBlob)
	check(err)
	secretData, err := os.ReadFile(filepath.Join(*dir, elide.FileSecretData))
	check(err)

	ssFile, err := os.Open(filepath.Join(*dir, "enclave.sigstruct"))
	check(err)
	var ss sgx.SigStruct
	check(gob.NewDecoder(ssFile).Decode(&ss))
	_ = ssFile.Close() // read-only; the decode above already succeeded

	if *emitServer != "" {
		prot := &elide.Protected{
			SanitizedELF: sanitized,
			Measurement:  ss.MrEnclave,
			Meta:         meta,
			SecretData:   secretData,
		}
		if meta.Hybrid {
			prot.SecretPlain, err = os.ReadFile(filepath.Join(*dir, elide.FileSecretPlain))
			check(err)
		}
		check(prot.WriteServerFiles(*emitServer, ca.PublicKey()))
		fmt.Printf("elide-run: wrote server files to %s (start elide-server -dir %s)\n", *emitServer, *emitServer)
		return
	}

	if *edlPath == "" {
		fatal(fmt.Errorf("elide-run: -edl is required to run the enclave"))
	}
	edlText, err := os.ReadFile(*edlPath)
	check(err)
	iface, err := elide.MergeEDL(string(edlText))
	check(err)

	platform, err := sgx.NewPlatform(sgx.Config{}, ca)
	check(err)
	host := sdk.NewHost(platform)
	metrics := obs.NewRegistry()
	tracer := obs.NewTracer(0)
	audit := obs.NewAuditLog(0)
	audit.SetRegistry(metrics)
	host.Metrics = metrics
	host.Tracer = tracer

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var client elide.SecretChannel
	var direct *elide.DirectClient
	if *connect != "" {
		tracer.SetService("client")
		addrs := strings.Split(*connect, ",")
		for i := range addrs {
			addrs[i] = strings.TrimSpace(addrs[i])
		}
		fc, err := elide.NewFailoverClient(addrs,
			elide.WithFailoverMetrics(metrics),
			elide.WithFailoverAudit(audit),
			elide.WithEndpointClientOptions(
				elide.WithDialTimeout(*dialTimeout),
				elide.WithRequestTimeout(*reqTimeout),
				elide.WithRetryBudget(*retries),
				elide.WithClientMetrics(metrics),
				elide.WithClientTracer(tracer),
			),
		)
		check(err)
		defer fc.Close()
		client = fc
		fmt.Printf("elide-run: authentication servers %s (retries=%d)\n", *connect, *retries)
	} else {
		cfg := elide.ServerConfig{
			CAPub:             ca.PublicKey(),
			ExpectedMrEnclave: ss.MrEnclave,
			Meta:              meta,
		}
		if !meta.Encrypted {
			cfg.SecretPlain = secretData
		}
		// In-process mode shares one tracer and audit log across both
		// hops, so the exported trace shows the server's session spans
		// joined into the launch trace.
		srv, err := elide.NewServer(cfg,
			elide.WithServerTracer(tracer),
			elide.WithServerAudit(audit),
		)
		check(err)
		direct = &elide.DirectClient{Session: srv.NewSession()}
		client = direct
		fmt.Println("elide-run: using in-process authentication server")
	}

	files := &elide.FileStore{}
	if meta.Encrypted {
		files.SecretData = secretData
	}
	rt := &elide.Runtime{Client: client, Files: files, Ctx: ctx, Metrics: metrics, Audit: audit}
	rt.Install(host)
	encl, err := host.CreateEnclave(sanitized, &ss, iface)
	check(err)
	fmt.Printf("elide-run: enclave initialized, MRENCLAVE %x...\n", encl.Encl.MrEnclave[:8])

	// Every mode runs through the resilient driver, so each protocol run has
	// a trace ID the flight recorder can dump and a lost session is rerun.
	out, err := elide.RestoreResilient(ctx, encl, rt, *flags)
	code := out.Code
	source := out.Source
	for _, ev := range out.Events {
		fmt.Fprintf(os.Stderr, "elide-run: restore event: %v\n", ev)
	}
	if err == nil && out.Attempts > 1 {
		fmt.Fprintf(os.Stderr, "elide-run: restore needed %d protocol runs\n", out.Attempts)
	}
	if direct != nil {
		_ = direct.Close() // completes the in-process server's session span
	}
	writeObsFiles(tracer, metrics, audit, *traceJSON, *metricsJSON, *auditJSON)
	phaseSummary(tracer)
	if err != nil {
		dumpRuntimeErrs(rt)
		writeDiag(*diagDir, tracer, audit, out.LastTraceID(), err.Error())
		fatal(fmt.Errorf("elide_restore: %w (runtime: %v)", err, rt.LastErr()))
	}
	switch {
	case source == "local":
		fmt.Println("elide-run: restored from the encrypted local file (degraded: no server reachable)")
	case code == elide.RestoreOKServer:
		fmt.Println("elide-run: restored via the authentication server")
	case code == elide.RestoreOKSealed:
		fmt.Println("elide-run: restored from the sealed file")
	default:
		dumpRuntimeErrs(rt)
		writeDiag(*diagDir, tracer, audit, out.LastTraceID(), fmt.Sprintf("restore code %d", code))
		fatal(fmt.Errorf("elide_restore failed with code %d (runtime: %v)", code, rt.LastErr()))
	}

	if *ecallName != "" {
		ret, err := encl.ECall(*ecallName, args...)
		check(err)
		fmt.Printf("elide-run: %s(%v) = %d (%#x)\n", *ecallName, []uint64(args), ret, ret)
	}
}

// phaseSummary prints the per-phase latency breakdown of the restore to
// stderr, in the paper's protocol order, plus the end-to-end total.
func phaseSummary(tr *obs.Tracer) {
	recs := tr.Completed()
	durs := obs.DurationsByName(recs)
	var total time.Duration
	for _, r := range recs {
		if r.Name == "elide_restore" {
			total = r.Duration()
		}
	}
	fmt.Fprintln(os.Stderr, "elide-run: restore phase timings:")
	for _, name := range elide.RestorePhases {
		d, ok := durs[name]
		if !ok {
			continue // e.g. no seal phase without -flags 2
		}
		fmt.Fprintf(os.Stderr, "  %-14s %12v\n", name, d)
	}
	if total > 0 {
		fmt.Fprintf(os.Stderr, "  %-14s %12v\n", "total", total)
	}
}

// writeObsFiles writes the trace JSONL, metrics snapshot, and audit JSONL
// files when the corresponding flags are set. Failures are reported, not
// fatal: the restore outcome matters more than the telemetry files.
func writeObsFiles(tr *obs.Tracer, reg *obs.Registry, audit *obs.AuditLog, tracePath, metricsPath, auditPath string) {
	writeJSONL := func(path, what string, write func(f *os.File) error) {
		f, err := os.Create(path)
		if err == nil {
			err = write(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "elide-run: writing %s: %v\n", path, err)
		} else {
			fmt.Fprintf(os.Stderr, "elide-run: %s written to %s\n", what, path)
		}
	}
	if tracePath != "" {
		writeJSONL(tracePath, "trace", func(f *os.File) error { return tr.WriteJSONL(f) })
	}
	if auditPath != "" {
		writeJSONL(auditPath, "audit log", func(f *os.File) error { return audit.WriteJSONL(f) })
	}
	if metricsPath != "" {
		blob, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
		if err == nil {
			err = os.WriteFile(metricsPath, blob, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "elide-run: writing %s: %v\n", metricsPath, err)
		}
	}
}

// writeDiag dumps the flight-recorder bundle for a failed restore: the
// failed trace's span tree plus the most recent audit events, under dir.
// A no-op when -diag-dir is unset.
func writeDiag(dir string, tr *obs.Tracer, audit *obs.AuditLog, traceID uint64, reason string) {
	if dir == "" {
		return
	}
	path, err := obs.WriteDiagBundle(dir, obs.CaptureDiag(tr, audit, traceID, reason, 256))
	if err != nil {
		fmt.Fprintf(os.Stderr, "elide-run: writing diagnostics bundle: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "elide-run: diagnostics bundle written to %s\n", path)
}

// argList collects repeated -arg values.
type argList []uint64

func (a *argList) String() string { return fmt.Sprint([]uint64(*a)) }

func (a *argList) Set(s string) error {
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return err
	}
	*a = append(*a, v)
	return nil
}

// dumpRuntimeErrs prints the runtime's recent-error ring, oldest first.
func dumpRuntimeErrs(rt *elide.Runtime) {
	for _, e := range rt.Errs() {
		fmt.Fprintf(os.Stderr, "elide-run: runtime error: %v\n", e)
	}
}

func check(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
