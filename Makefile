GO ?= go

.PHONY: build build-vet verify vet-security fmt-check test perfbench-test race fuzz-smoke chaos load-smoke resume-smoke churn-smoke bench-phases bench-chaos bench-churn bench-load bench-resume bench-frames bench-obs obs-demo clean

build:
	$(GO) build ./...

# Tier-1 verification (see ROADMAP.md): formatting, build, vet (stdlib
# analyzers plus the elide-vet secrecy suite), full tests including the
# nested perfbench module's, the race detector over the transport-heavy
# packages and the tracer, the observability allocation budgets, a short
# exploring fuzz of the handshake, member-list and client reply decoders,
# and short-mode chaos, load, resume and churn smoke runs.
verify: fmt-check build
	$(GO) vet ./...
	$(MAKE) vet-security
	$(GO) test ./...
	$(MAKE) perfbench-test
	$(GO) test -race ./internal/elide/... ./internal/sdk/...
	$(GO) test -race ./internal/obs/...
	$(MAKE) bench-obs
	$(MAKE) fuzz-smoke
	$(MAKE) chaos
	$(MAKE) load-smoke
	$(MAKE) resume-smoke
	$(MAKE) churn-smoke

# The elide-vet vettool: four analyzers (constanttime, secretflow,
# padleak, wipe) that mechanically enforce the enclave secrecy
# invariants. See DESIGN.md §12.
build-vet:
	$(GO) build -o bin/elide-vet ./cmd/elide-vet

# Run the secrecy-lint suite over the whole repo. Fails (exit 2) on any
# unsuppressed finding; audited false positives carry an
# //elide:vet-ignore <analyzer> <reason> directive at the finding site.
vet-security: build-vet
	$(GO) vet -vettool=bin/elide-vet ./...
	@echo "vet-security: constanttime secretflow padleak wipe — no unsuppressed findings"

# gofmt cleanliness (the packages plus the root *.go files): fails
# listing the offending files, fixes nothing.
fmt-check:
	@out="$$(gofmt -l cmd internal examples *.go)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The benchmark's own tests. perfbench is a nested module, so the root
# `go test ./...` skips it, yet it drives the internal packages through
# their public APIs.
perfbench-test:
	cd perfbench && $(GO) test ./...

race:
	$(GO) test -race ./internal/elide/... ./internal/sdk/... ./internal/obs/...

# Ten seconds of native fuzzing on each decoder an unauthenticated peer
# reaches, about 30 s in all: the handshake (FuzzReadHandshake,
# handshake_test.go), the member list a client reads from any server it
# dials (FuzzParseMembers, membership_test.go), and the response frame and
# attest reply it reads from that server (FuzzReadResponse,
# handshake_test.go). -fuzzminimizetime 0 keeps the time for exploration:
# minimizing a new input defaults to 60 s, which would use up the whole
# run on the first find.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadHandshake$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/elide/
	$(GO) test -run '^$$' -fuzz '^FuzzParseMembers$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/elide/
	$(GO) test -run '^$$' -fuzz '^FuzzReadResponse$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/elide/

# Scaled-down chaos smoke: replicated servers, a mid-run kill + restart,
# scripted connection faults; every restore must succeed or fail typed.
chaos:
	$(GO) test -short -run TestChaosBenchSmoke -v ./internal/bench/

# Scaled-down open-loop load smoke: a few dozen protocol-level restores,
# pipelined and unbundled, asserting 1 vs 3 wire flights per restore.
load-smoke:
	$(GO) test -short -run TestLoadBenchSmoke -v ./internal/bench/

# Scaled-down failover-resume smoke: kill the attested replica, resume
# every session on its peer; replicated resumes must cost zero extra
# attestation flights, the unreplicated baseline exactly one each.
resume-smoke:
	$(GO) test -short -run TestResumeBenchSmoke -v ./internal/bench/

# Scaled-down gossip-fleet churn smoke (race detector on, per the fleet
# membership acceptance bar): kill, cold-add and restart members under
# restore load; the cold member must converge via anti-entropy and
# resume every session with zero attestation flights.
churn-smoke:
	$(GO) test -race -short -run TestChurnBenchSmoke -v ./internal/bench/

# Per-phase restore latency breakdown; writes BENCH_restore_phases.json.
bench-phases:
	$(GO) run ./cmd/elide-bench -phases

# Full chaos run: concurrent restores against server replicas while the
# controller kills/restarts them and injects scripted connection faults;
# writes BENCH_chaos.json.
bench-chaos:
	$(GO) run ./cmd/elide-bench -chaos

# Full gossip-fleet churn run: restores against a gossip mesh while the
# controller kills, cold-adds and restarts members; writes
# BENCH_churn.json.
bench-churn:
	$(GO) run ./cmd/elide-bench -churn

# Open-loop load test: 10k restores offered at a fixed arrival rate,
# pipelined vs unbundled; writes BENCH_load.json.
bench-load:
	$(GO) run ./cmd/elide-bench -load

# Failover-resume benchmark: sessions established on one replica, the
# replica killed, every session resumed against its peer — replicated
# (zero extra attestation flights) vs unreplicated baseline (one full
# re-attest per session); writes BENCH_resume.json.
bench-resume:
	$(GO) run ./cmd/elide-bench -resume

# Frame and handshake codec allocation microbenchmarks (the -benchmem
# numbers EXPERIMENTS.md quotes).
bench-frames:
	$(GO) test -run '^$$' -bench 'Frame|WriteResponse|WriteErrorFrame|Handshake' -benchmem ./internal/elide/

# Observability hot-path budget gate: span start/finish and audit emit
# must stay within 1 alloc/op at ring steady state (the AllocsPerRun
# tests fail otherwise), with -benchmem numbers alongside for the
# EXPERIMENTS.md table. Part of verify.
bench-obs:
	$(GO) test -run 'Allocs' -bench 'BenchmarkSpan|BenchmarkAudit' -benchtime=1000x -benchmem ./internal/obs/

# Cross-process tracing + audit demo: runs a traced, audited restore,
# prints the merged client+server span tree, and writes
# BENCH_trace.jsonl / BENCH_audit.jsonl (schema-validated on the way
# out). CI uploads both as artifacts.
obs-demo:
	$(GO) run ./cmd/elide-bench -obs-demo

clean:
	rm -rf bin BENCH_restore_phases.json BENCH_chaos.json BENCH_churn.json BENCH_load.json BENCH_resume.json BENCH_trace.jsonl BENCH_audit.jsonl
