// elide-server is the SgxElide authentication server daemon (the artifact's
// server.py): it holds the secret metadata (and, in remote-data and hybrid
// mode, the secret data), verifies each enclave's quote against the pinned
// CA and the expected sanitized measurement, and answers REQUEST_META /
// REQUEST_DATA over AES-GCM channels.
//
//	elide-server -dir serverfiles -listen 127.0.0.1:7788
//
// -dir is a directory of deployments, one subdirectory per sanitized
// enclave, each in the Protected.WriteServerFiles layout; elide-run
// -emit-server serverfiles writes one named after the measurement's 8-hex
// label:
//
//	serverfiles/2ac39a3d/  ca_pub.pem enclave.mrenclave enclave.secret.meta [enclave.secret.data]
//
// One daemon serves every deployment in it: secrets are released strictly
// by attested MRENCLAVE, and the directory is re-scanned every
// -rescan-interval so deployments added, replaced, or deleted on disk are
// picked up without a restart.
//
// Replication is share-nothing for secrets: for availability, start several
// daemons on the same deployments directory under different -listen
// addresses — possibly on different hosts, each with its own copy of the
// files — and give clients the whole fleet via elide-run -connect.
// Every replica can answer any restore independently. Session state is
// per-replica by default (after a failover the client pays a full
// re-attest). With a shared -fleet-key and -gossip-advertise the replicas
// form a fleet (DESIGN §14–15): they replicate session-resumption records
// to each other, wrapped under the fleet sealing key (channel keys never
// cross the wire in cleartext), so any member resumes any client's
// attested channel and a failover costs zero extra attestation flights.
// -peers are seeds: a member learns the whole fleet from any one live
// seed, runs SWIM-style failure detection over the peer links, declares
// unreachable members suspect and then dead (and drops them from client
// endpoint pools), and anti-entropy-syncs resume records so a cold-started
// member converges without waiting for client traffic:
//
//	elide-server -listen :7788 -gossip-advertise host1:7788 \
//	    -peers host2:7788 -fleet-key fleet.key
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: it stops accepting,
// drains in-flight sessions (bounded by -drain-timeout), and prints a
// metrics snapshot before exiting. -metrics-json additionally writes the
// snapshot to a file on shutdown (and, with -metrics-interval, periodically
// while serving). -admin-addr starts a telemetry HTTP listener serving
// /metrics (Prometheus text; ?format=json for the JSON snapshot), /healthz,
// /trace (recent session spans), and /debug/pprof.
package main

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sgxelide/internal/elide"
	"sgxelide/internal/obs"
)

func main() {
	var (
		dir          = flag.String("dir", "serverfiles", "deployments directory: one subdirectory per enclave with ca_pub.pem, enclave.mrenclave, enclave.secret.meta[, enclave.secret.data]")
		rescanEvery  = flag.Duration("rescan-interval", 30*time.Second, "how often -dir is re-scanned for new/changed/removed deployments (0 = never)")
		listen       = flag.String("listen", "127.0.0.1:7788", "listen address")
		adminAddr    = flag.String("admin-addr", "", "telemetry HTTP listen address for /metrics, /healthz, /trace, /debug/pprof (empty = disabled)")
		maxSessions  = flag.Int("max-sessions", 256, "maximum concurrent sessions")
		ioTimeout    = flag.Duration("io-timeout", 30*time.Second, "per-connection read/write deadline")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for in-flight sessions")
		metricsJSON  = flag.String("metrics-json", "", "write the metrics snapshot to this file on shutdown (and periodically with -metrics-interval)")
		metricsEvery = flag.Duration("metrics-interval", 0, "also rewrite -metrics-json at this interval while serving (0 = only on shutdown)")

		enclaveRPS      = flag.Float64("enclave-rps", 0, "per-enclave fresh-attestation rate limit in attests/second (0 = unlimited); excess clients get a typed overload with a retry-after hint")
		enclaveBurst    = flag.Int("enclave-burst", 0, "per-enclave attest burst allowance for -enclave-rps (0 = the rate rounded up)")
		enclaveInflight = flag.Int("enclave-inflight", 0, "per-enclave cap on concurrently served channel requests (0 = unlimited)")

		peers     = flag.String("peers", "", "comma-separated fleet seeds: addresses of members to join through (requires -fleet-key)")
		fleetKey  = flag.String("fleet-key", "", "path to the shared fleet sealing key (16/24/32 raw bytes, or that many hex-encoded); makes this replica a fleet member (requires -gossip-advertise)")
		resumeTTL = flag.Duration("resume-ttl", elide.DefaultResumeTTL, "how long a cached session may be resumed before a full re-attest is required (0 = no expiry)")

		gossipAdvertise = flag.String("gossip-advertise", "", "address this replica advertises to the fleet, the one the other members dial back (requires -fleet-key)")
		gossipInterval  = flag.Duration("gossip-interval", elide.DefaultGossipInterval, "gossip probe/anti-entropy tick for -gossip-advertise")
		suspectTimeout  = flag.Duration("suspect-timeout", elide.DefaultSuspectTimeout, "how long an unrefuted suspicion lasts before the member is declared dead")

		auditFile  = flag.String("audit-file", "", "append security audit events (one JSON event per line) to this file, rotated at -audit-max-bytes")
		auditBytes = flag.Int64("audit-max-bytes", 8<<20, "rotate -audit-file (to <file>.1) when it exceeds this size")
		diagDir    = flag.String("diag-dir", "", "flight recorder: on shutdown after security-relevant audit events (refusals, torn restores, corrupt seals), write a diagnostics bundle under this directory")
	)
	flag.Parse()

	metrics := obs.NewRegistry()
	tracer := obs.NewTracer(0)
	tracer.SetService("server")
	audit := obs.NewAuditLog(0)
	audit.SetRegistry(metrics)
	if *auditFile != "" {
		if err := audit.SetFileSink(*auditFile, *auditBytes); err != nil {
			fatal(err)
		}
		defer audit.CloseSink()
		fmt.Printf("elide-server: audit events appended to %s\n", *auditFile)
	}
	opts := []elide.ServerOption{
		elide.WithMaxSessions(*maxSessions),
		elide.WithIOTimeout(*ioTimeout),
		elide.WithDrainTimeout(*drainTimeout),
		elide.WithServerMetrics(metrics),
		elide.WithServerTracer(tracer),
		elide.WithServerAudit(audit),
	}
	if *enclaveRPS > 0 {
		opts = append(opts, elide.WithEnclaveRateLimit(*enclaveRPS, *enclaveBurst))
	}
	if *enclaveInflight > 0 {
		opts = append(opts, elide.WithEnclaveInflightLimit(*enclaveInflight))
	}
	opts = append(opts, elide.WithResumeTTL(*resumeTTL))
	if (*peers != "" || *gossipAdvertise != "") && *fleetKey == "" {
		fatal(fmt.Errorf("elide-server: -peers and -gossip-advertise require -fleet-key; resume records and membership only cross the wire sealed under the fleet key"))
	}
	if *fleetKey != "" {
		if *gossipAdvertise == "" {
			fatal(fmt.Errorf("elide-server: -fleet-key requires -gossip-advertise, the address the other members dial back"))
		}
		key, err := loadFleetKey(*fleetKey)
		if err != nil {
			fatal(err)
		}
		var seeds []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				seeds = append(seeds, p)
			}
		}
		opts = append(opts,
			elide.WithFleet(key, *gossipAdvertise, seeds...),
			elide.WithGossipInterval(*gossipInterval),
			elide.WithSuspectTimeout(*suspectTimeout))
		fmt.Printf("elide-server: fleet member %s, seeds [%s] (gossip interval %s, suspect timeout %s)\n",
			*gossipAdvertise, strings.Join(seeds, ", "), *gossipInterval, *suspectTimeout)
	}
	store := elide.NewSecretStore()
	store.SetAuditLog(audit)
	rep, err := store.LoadDir(*dir)
	if err != nil {
		fatal(err)
	}
	for name, lerr := range rep.Failed {
		fmt.Fprintf(os.Stderr, "elide-server: skipping deployment %s: %v\n", name, lerr)
	}
	if store.Len() == 0 {
		fatal(fmt.Errorf("elide-server: no loadable deployment under %s: -dir holds one subdirectory per enclave, %s/<name>/{%s,%s,%s[,%s]}, as elide-run -emit-server %s writes it",
			*dir, *dir, elide.FileCAPub, elide.FileMeasurement, elide.FileSecretMeta, elide.FileSecretData, *dir))
	}
	srv, err := elide.NewMultiServer(store.CA(), store, opts...)
	if err != nil {
		fatal(err)
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("elide-server: %d deployments from %s, listening on %s\n", store.Len(), *dir, l.Addr())
	printEntries(store)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	go store.Watch(ctx, *dir, *rescanEvery, func(rep elide.DirReport) {
		fmt.Printf("elide-server: rescan of %s: %s\n", *dir, rep)
		printEntries(store)
	})

	if *adminAddr != "" {
		al, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			fatal(err)
		}
		admin := &http.Server{Handler: obs.AdminHandler(metrics, tracer, "sgxelide",
			obs.WithAuditLog(audit),
			obs.WithHealthCheck("store", store.HealthCheck),
			obs.WithHealthCheck("replication", srv.ReplicationHealth),
		)}
		go func() {
			if err := admin.Serve(al); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "elide-server: admin listener: %v\n", err)
			}
		}()
		go func() {
			<-ctx.Done()
			shctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			admin.Shutdown(shctx)
		}()
		fmt.Printf("elide-server: telemetry on http://%s/metrics\n", al.Addr())
	}

	if *metricsEvery > 0 && *metricsJSON != "" {
		go func() {
			t := time.NewTicker(*metricsEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					writeSnapshot(*metricsJSON, metrics.Snapshot())
				}
			}
		}()
	}

	err = srv.Serve(ctx, l)
	snap := metrics.Snapshot()
	if *metricsJSON != "" {
		writeSnapshot(*metricsJSON, snap)
	}
	writeShutdownDiag(*diagDir, tracer, audit)
	if errors.Is(err, elide.ErrServerClosed) {
		fmt.Printf("elide-server: shut down cleanly\n%s", snap)
		return
	}
	if err != nil {
		fmt.Fprint(os.Stderr, snap)
		fatal(err)
	}
}

// writeSnapshot atomically replaces path with the JSON-encoded snapshot so
// a scraper never reads a half-written file.
func writeSnapshot(path string, snap obs.Snapshot) {
	blob, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

// writeShutdownDiag is the server side of the flight recorder: if the run
// recorded security-relevant audit events — attestation refusals, torn
// restores, corrupt sealed blobs, rescan failures — the whole span ring and
// the recent audit tail are bundled under dir for postmortem. A clean run
// (or an unset -diag-dir) writes nothing.
func writeShutdownDiag(dir string, tracer *obs.Tracer, audit *obs.AuditLog) {
	if dir == "" {
		return
	}
	counts := audit.Counts()
	var suspect uint64
	for _, typ := range []string{
		obs.AuditAttestRefused, obs.AuditTornRestore,
		obs.AuditSealedCorrupt, obs.AuditStoreRescanFailed,
	} {
		suspect += counts[typ]
	}
	if suspect == 0 {
		return
	}
	reason := fmt.Sprintf("shutdown after %d security-relevant audit events", suspect)
	path, err := obs.WriteDiagBundle(dir, obs.CaptureDiag(tracer, audit, 0, reason, 512))
	if err != nil {
		fmt.Fprintf(os.Stderr, "elide-server: writing diagnostics bundle: %v\n", err)
		return
	}
	fmt.Printf("elide-server: diagnostics bundle written to %s\n", path)
}

// loadFleetKey reads the shared fleet sealing key from path: either raw
// key bytes (16/24/32) or their hex encoding (whitespace-trimmed), so
// keys can be generated with `head -c 32 /dev/urandom` or `openssl rand
// -hex 32` alike.
func loadFleetKey(path string) ([]byte, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("elide-server: reading -fleet-key: %w", err)
	}
	switch len(blob) {
	case 16, 24, 32:
		return blob, nil
	}
	trimmed := strings.TrimSpace(string(blob))
	key, err := hex.DecodeString(trimmed)
	if err != nil {
		return nil, fmt.Errorf("elide-server: -fleet-key %s is neither raw nor hex key bytes: %w", path, err)
	}
	switch len(key) {
	case 16, 24, 32:
		return key, nil
	}
	return nil, fmt.Errorf("elide-server: -fleet-key %s holds %d key bytes; want 16, 24, or 32", path, len(key))
}

// printEntries lists the registered deployments and the data mode of each.
func printEntries(store *elide.SecretStore) {
	for _, e := range store.Entries() {
		mode := "remote-data"
		switch {
		case e.Meta.Hybrid:
			mode = "hybrid"
		case e.Meta.Encrypted:
			mode = "local-data"
		}
		fmt.Printf("elide-server:   %s  MRENCLAVE %x...  %s\n", e.Name, e.MrEnclave[:8], mode)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
