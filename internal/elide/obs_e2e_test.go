package elide

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"sgxelide/internal/obs"
	"sgxelide/internal/sdk"
	"sgxelide/internal/sgx"
)

// killBeforeAttest kills a server the moment the client first tries to
// attest to it — the pool must walk to a replica inside the live restore
// run, so the failover switch happens mid-protocol, under one trace.
type killBeforeAttest struct {
	SecretChannel
	kill func()
	once sync.Once
}

func (k *killBeforeAttest) Attest(ctx context.Context, q *sgx.Quote, pub []byte) ([]byte, error) {
	k.once.Do(k.kill)
	return k.SecretChannel.Attest(ctx, q, pub)
}

// TestCrossProcessTraceFailoverE2E is the tentpole's acceptance scenario:
// a resilient restore against real TCP replicas, with the first replica
// dying mid-protocol, must yield ONE connected trace — the client's
// restore spans, the failover walk, and the surviving server's session
// spans all under the same trace ID — and a schema-valid audit stream
// whose security decisions carry that trace ID.
func TestCrossProcessTraceFailoverE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("enclave protocol run in -short")
	}
	ca, h := env(t)
	clientTracer := obs.NewTracer(0)
	clientTracer.SetService("client")
	h.Tracer = clientTracer
	h.Metrics = obs.NewRegistry()
	p := buildApp(t, h, SanitizeOptions{})

	audit := obs.NewAuditLog(0)
	srvTracer0 := obs.NewTracer(0)
	srvTracer0.SetService("server")
	srvTracer1 := obs.NewTracer(0)
	srvTracer1.SetService("server")
	srv0 := startKillable(t, p, ca, WithServerTracer(srvTracer0), WithServerAudit(audit))
	srv1 := startKillable(t, p, ca, WithServerTracer(srvTracer1), WithServerAudit(audit))

	fc, err := NewFailoverClient([]string{srv0.addr, srv1.addr},
		WithFailoverAudit(audit),
		WithBreakerCooldown(50*time.Millisecond),
		WithClientFactory(func(addr string) SecretChannel {
			c := NewTCPClient(addr, append(fastRetry(1), WithProtocolVersion(ProtoV1))...)
			if addr == srv0.addr {
				return &killBeforeAttest{SecretChannel: c, kill: srv0.kill}
			}
			return c
		}),
	)
	if err != nil {
		t.Fatal(err)
	}

	encl, rt, err := p.Launch(h, fc, p.LocalFiles())
	if err != nil {
		t.Fatal(err)
	}
	defer encl.Destroy()
	rt.Audit = audit
	out, err := RestoreResilient(context.Background(), encl, rt, 0)
	if err != nil {
		t.Fatalf("resilient restore failed: %v (events %v)", err, out.Events)
	}
	if out.Code != RestoreOKServer {
		t.Fatalf("restore code = %d, want server restore", out.Code)
	}
	trace := out.LastTraceID()
	if trace == 0 {
		t.Fatal("restore produced no trace ID")
	}

	// Close the pool so the surviving server's session span completes, then
	// merge both hops' rings and cut out the final restore's trace.
	fc.Close()
	deadline := time.Now().Add(5 * time.Second)
	var merged []obs.SpanRecord
	for {
		merged = append(clientTracer.Completed(), srvTracer1.Completed()...)
		merged = append(merged, srvTracer0.Completed()...)
		if hasServerSession(merged, trace) || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	spans := obs.FilterTrace(merged, trace)
	if !hasServerSession(spans, trace) {
		t.Fatalf("no server session span joined trace %d:\n%s", trace, obs.RenderTree(merged))
	}

	// Connectivity: every span in the trace must reach the elide_restore
	// root through parents that are themselves in the trace — one tree, no
	// orphans, across both processes.
	byID := make(map[uint64]obs.SpanRecord, len(spans))
	var root obs.SpanRecord
	for _, r := range spans {
		byID[r.SpanID] = r
		if r.ParentID == 0 {
			if root.SpanID != 0 {
				t.Fatalf("two roots in trace %d: %s and %s", trace, root.Name, r.Name)
			}
			root = r
		}
	}
	if root.Name != "elide_restore" {
		t.Fatalf("trace root = %q, want elide_restore", root.Name)
	}
	for _, r := range spans {
		seen := 0
		for cur := r; cur.ParentID != 0; {
			parent, ok := byID[cur.ParentID]
			if !ok {
				t.Fatalf("span %q (id %d) orphaned: parent %d not in trace\n%s",
					r.Name, r.SpanID, cur.ParentID, obs.RenderTree(spans))
			}
			cur = parent
			if seen++; seen > len(spans) {
				t.Fatal("parent cycle in trace")
			}
		}
	}

	// Both hops contributed to the one trace.
	svcs := map[string]bool{}
	for _, r := range spans {
		svcs[r.Svc] = true
	}
	if !svcs["client"] || !svcs["server"] {
		t.Fatalf("trace spans cover hops %v, want client and server", svcs)
	}

	// The rendered merged tree shows the cross-process nesting.
	tree := obs.RenderTree(spans)
	if !strings.Contains(tree, "[server]") || !strings.Contains(tree, "session") {
		t.Errorf("rendered tree lacks the server hop:\n%s", tree)
	}

	// Audit stream: schema-valid, and the security decisions of this
	// restore carry its trace ID.
	var buf bytes.Buffer
	if err := audit.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if n, err := obs.ValidateAuditJSONL(bytes.NewReader(buf.Bytes())); err != nil || n == 0 {
		t.Fatalf("audit stream invalid: n=%d err=%v", n, err)
	}
	wantTraced := map[string]bool{
		obs.AuditAttestOK:       false, // the surviving replica's verdict
		obs.AuditFailoverSwitch: false, // the mid-protocol walk off srv0
		obs.AuditRestoreOK:      false, // the driver's terminal verdict
	}
	for _, ev := range audit.Recent(0) {
		if _, ok := wantTraced[ev.Type]; ok && ev.TraceID == trace {
			wantTraced[ev.Type] = true
		}
	}
	for typ, got := range wantTraced {
		if !got {
			t.Errorf("no %s audit event carries trace %d (events: %v)", typ, trace, audit.Counts())
		}
	}
}

// hasServerSession reports whether a server-hop session span for trace is
// present in recs.
func hasServerSession(recs []obs.SpanRecord, trace uint64) bool {
	for _, r := range recs {
		if r.TraceID == trace && r.Svc == "server" && r.Name == "session" {
			return true
		}
	}
	return false
}

// TestRuntimeHealthCheck covers the runtime side of the degraded /healthz
// satellite: a nonempty error ring flips the check, ClearErrs restores it.
func TestRuntimeHealthCheck(t *testing.T) {
	rt := &Runtime{}
	if err := rt.HealthCheck(); err != nil {
		t.Fatalf("fresh runtime unhealthy: %v", err)
	}
	rt.recordErr(ErrSealedCorrupt)
	if err := rt.HealthCheck(); err == nil {
		t.Fatal("runtime with ring errors reports healthy")
	}
	rt.ClearErrs()
	if err := rt.HealthCheck(); err != nil {
		t.Fatalf("cleared runtime still unhealthy: %v", err)
	}
}

// Quiet unused-import guard for sdk (used indirectly by helpers in other
// files of this package's tests).
var _ = sdk.GenerateECDHKeypair
