package elide

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sgxelide/internal/obs"
	"sgxelide/internal/sgx"
)

// The membership tests never attest — gossip, anti-entropy, and the
// client query all work against a server with an empty secret store, so
// everything here runs in -short too.

// plainServer builds a quote-free server (empty store) with the given
// options.
func plainServer(t *testing.T, ca *sgx.CA, opts ...ServerOption) *Server {
	t.Helper()
	srv, err := NewMultiServer(ca.PublicKey(), NewSecretStore(),
		append([]ServerOption{WithDrainTimeout(50 * time.Millisecond)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// gossipOpts is the common fast-gossip option set for a fleet member.
func gossipOpts(key []byte, self string, m *obs.Registry, a *obs.AuditLog, seeds ...string) []ServerOption {
	return []ServerOption{
		WithServerMetrics(m),
		WithServerAudit(a),
		WithFleet(key, self, seeds...),
		WithGossipInterval(10 * time.Millisecond),
		WithSuspectTimeout(60 * time.Millisecond),
	}
}

// serveKill serves srv on l and returns an idempotent kill func (also
// registered as cleanup).
func serveKill(t *testing.T, srv *Server, l net.Listener) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, l) }()
	var once sync.Once
	kill := func() {
		once.Do(func() {
			cancel()
			<-served
		})
	}
	t.Cleanup(kill)
	return kill
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// memberStatus scans a member list for addr.
func memberStatus(ms []Member, addr string) (MemberStatus, bool) {
	for _, m := range ms {
		if m.Addr == addr {
			return m.Status, true
		}
	}
	return 0, false
}

func freshRecord(ttl time.Duration) ResumeRecord {
	var rec ResumeRecord
	if _, err := rand.Read(rec.Binding[:]); err != nil {
		panic(err)
	}
	rec.ServerPub = bytes.Repeat([]byte{0x11}, 32)
	rec.ChannelKey = bytes.Repeat([]byte{0x22}, 16)
	rec.ExpiresAt = time.Now().Add(ttl)
	return rec
}

func TestMemberWireRoundTrip(t *testing.T) {
	in := []Member{
		{Addr: "10.0.0.1:7001", Incarnation: 42, Status: MemberAlive},
		{Addr: "10.0.0.2:7001", Incarnation: 7, Status: MemberSuspect},
		{Addr: "10.0.0.3:7001", Incarnation: 0, Status: MemberDead},
	}
	out, err := parseMembers(marshalMembers(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip lost members: %d != %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("member %d: %+v != %+v", i, out[i], in[i])
		}
	}
	for _, bad := range [][]byte{nil, {}, {2, 0, 0}, {1, 1, 0, 9}, marshalMembers(in)[:10]} {
		if _, err := parseMembers(bad); err == nil {
			t.Fatalf("parseMembers accepted malformed input %v", bad)
		}
	}

	var b1, b2 [32]byte
	b1[0], b2[0] = 1, 2
	set, err := parseDigest(marshalDigest([][32]byte{b1, b2}))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := set[b1]; !ok || len(set) != 2 {
		t.Fatalf("digest round trip lost bindings: %v", set)
	}
	if _, err := parseDigest([]byte{9, 0, 0, 0, 1}); err == nil {
		t.Fatal("parseDigest accepted a length mismatch")
	}
}

// TestMembershipMergePrecedence pins the SWIM precedence rules: the
// incarnation arithmetic that makes false suspicion self-healing and a
// restart able to out-bid its previous life.
func TestMembershipMergePrecedence(t *testing.T) {
	var dead []string
	metrics := obs.NewRegistry()
	m := newMembership("self:1", []string{"a:1"}, metrics, nil)
	m.onDead = func(addr string) { dead = append(dead, addr) }

	statusOf := func(addr string) (MemberStatus, uint64) {
		for _, e := range m.snapshot() {
			if e.Addr == addr {
				return e.Status, e.Incarnation
			}
		}
		t.Fatalf("member %s missing from snapshot", addr)
		return 0, 0
	}

	m.merge([]Member{{Addr: "a:1", Incarnation: 5, Status: MemberAlive}})
	if st, inc := statusOf("a:1"); st != MemberAlive || inc != 5 {
		t.Fatalf("alive{5} not applied: %v/%d", st, inc)
	}
	// A stale suspicion loses; an equal-incarnation one wins over alive.
	m.merge([]Member{{Addr: "a:1", Incarnation: 4, Status: MemberSuspect}})
	if st, _ := statusOf("a:1"); st != MemberAlive {
		t.Fatal("stale suspect{4} overrode alive{5}")
	}
	m.merge([]Member{{Addr: "a:1", Incarnation: 5, Status: MemberSuspect}})
	if st, _ := statusOf("a:1"); st != MemberSuspect {
		t.Fatal("suspect{5} did not override alive{5}")
	}
	// Refutation needs a strictly higher incarnation.
	m.merge([]Member{{Addr: "a:1", Incarnation: 5, Status: MemberAlive}})
	if st, _ := statusOf("a:1"); st != MemberSuspect {
		t.Fatal("alive{5} overrode suspect{5}")
	}
	m.merge([]Member{{Addr: "a:1", Incarnation: 6, Status: MemberAlive}})
	if st, _ := statusOf("a:1"); st != MemberAlive {
		t.Fatal("alive{6} did not refute suspect{5}")
	}
	// Death at the same incarnation sticks; suspicion cannot revive it;
	// a strictly higher alive (a restart) can.
	m.merge([]Member{{Addr: "a:1", Incarnation: 6, Status: MemberDead}})
	if st, _ := statusOf("a:1"); st != MemberDead {
		t.Fatal("dead{6} did not override alive{6}")
	}
	m.merge([]Member{{Addr: "a:1", Incarnation: 9, Status: MemberSuspect}})
	if st, _ := statusOf("a:1"); st != MemberDead {
		t.Fatal("suspect{9} revived a dead member")
	}
	m.merge([]Member{{Addr: "a:1", Incarnation: 7, Status: MemberAlive}})
	if st, _ := statusOf("a:1"); st != MemberAlive {
		t.Fatal("alive{7} (a restart) did not revive dead{6}")
	}

	// A new member joins through gossip; a dead stranger is recorded but
	// never admitted to the push set.
	m.merge([]Member{
		{Addr: "b:1", Incarnation: 3, Status: MemberAlive},
		{Addr: "c:1", Incarnation: 1, Status: MemberDead},
	})
	if st, _ := statusOf("b:1"); st != MemberAlive {
		t.Fatal("b:1 did not join")
	}
	if st, _ := statusOf("c:1"); st != MemberDead {
		t.Fatal("dead stranger c:1 not recorded")
	}
	if got := metrics.Counter("server.gossip_joins").Load(); got != 1 {
		t.Fatalf("gossip_joins = %d, want 1 (b:1 only)", got)
	}
	for _, a := range m.live() {
		if a == "c:1" {
			t.Fatal("dead stranger admitted to the push set")
		}
	}
	if len(dead) != 1 || dead[0] != "a:1" {
		t.Fatalf("dead hooks = %v, want [a:1]", dead)
	}

	// Hearing yourself suspected is a call to refute: self incarnation
	// must jump above the accusation.
	selfInc := m.snapshot()[0].Incarnation
	m.merge([]Member{{Addr: "self:1", Incarnation: selfInc + 10, Status: MemberSuspect}})
	if got := m.snapshot()[0].Incarnation; got != selfInc+11 {
		t.Fatalf("self incarnation = %d after accusation at %d, want %d", got, selfInc+10, selfInc+11)
	}
}

// TestGossipMeshBootstrap: three servers where only the seeds point at
// replica 0 still converge on the full member set, and a killed member
// is suspected, then declared dead, with audit events at each step.
func TestGossipMeshBootstrap(t *testing.T) {
	ca, _ := env(t)
	key := bytes.Repeat([]byte{0x21}, 32)
	lA, lB, lC := listen(t), listen(t), listen(t)
	aA, aB, aC := obs.NewAuditLog(0), obs.NewAuditLog(0), obs.NewAuditLog(0)
	mA, mB, mC := obs.NewRegistry(), obs.NewRegistry(), obs.NewRegistry()
	addrA, addrB, addrC := lA.Addr().String(), lB.Addr().String(), lC.Addr().String()

	srvA := plainServer(t, ca, gossipOpts(key, addrA, mA, aA)...)
	srvB := plainServer(t, ca, gossipOpts(key, addrB, mB, aB, addrA)...)
	srvC := plainServer(t, ca, gossipOpts(key, addrC, mC, aC, addrA)...)
	serveKill(t, srvA, lA)
	serveKill(t, srvB, lB)
	killC := serveKill(t, srvC, lC)

	// B and C only know A, yet every server must learn all three.
	full := func(srv *Server, others ...string) bool {
		ms := srv.Members()
		for _, o := range others {
			if st, ok := memberStatus(ms, o); !ok || st != MemberAlive {
				return false
			}
		}
		return true
	}
	waitFor(t, "mesh bootstrap from one seed", func() bool {
		return full(srvA, addrB, addrC) && full(srvB, addrA, addrC) && full(srvC, addrA, addrB)
	})

	killC()
	waitFor(t, "killed member declared dead", func() bool {
		stA, _ := memberStatus(srvA.Members(), addrC)
		stB, _ := memberStatus(srvB.Members(), addrC)
		return stA == MemberDead && stB == MemberDead
	})
	counts := aA.Counts()
	for k, v := range aB.Counts() {
		counts[k] += v
	}
	if counts[obs.AuditMemberSuspect] == 0 {
		t.Error("no member_suspect audit event for the killed replica")
	}
	if counts[obs.AuditMemberDead] == 0 {
		t.Error("no member_dead audit event for the killed replica")
	}
	if counts[obs.AuditMemberJoin] == 0 {
		t.Error("no member_join audit events during bootstrap")
	}
}

// TestMembersQueryAndPoolSync: a client learns the fleet from any one
// server and the endpoint pool grows/shrinks to match; a configured
// endpoint the fleet does not list is only a seed, and is dropped.
func TestMembersQueryAndPoolSync(t *testing.T) {
	ca, _ := env(t)
	key := bytes.Repeat([]byte{0x33}, 16)
	lA, lB := listen(t), listen(t)
	addrA, addrB := lA.Addr().String(), lB.Addr().String()
	mA, mB := obs.NewRegistry(), obs.NewRegistry()

	srvA := plainServer(t, ca, gossipOpts(key, addrA, mA, nil)...)
	srvB := plainServer(t, ca, gossipOpts(key, addrB, mB, nil, addrA)...)
	serveKill(t, srvA, lA)
	killB := serveKill(t, srvB, lB)
	waitFor(t, "A learns B", func() bool {
		st, ok := memberStatus(srvA.Members(), addrB)
		return ok && st == MemberAlive
	})

	ctx := context.Background()
	ms, err := NewTCPClient(addrA, fastRetry(1)...).Members(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := memberStatus(ms, addrB); !ok || st != MemberAlive {
		t.Fatalf("client member list missing alive B: %+v", ms)
	}
	if ms[0].Addr != addrA {
		t.Fatalf("member list does not lead with the answering server: %+v", ms)
	}

	// A server outside any fleet refuses the query.
	lP := listen(t)
	serveKill(t, plainServer(t, ca), lP)
	if _, err := NewTCPClient(lP.Addr().String(), fastRetry(1)...).Members(ctx); !errors.Is(err, ErrRefused) {
		t.Fatalf("server outside any fleet answered the membership query: %v", err)
	}

	// Pool: configured [A, outsider]; sync adds B and drops the server
	// the fleet does not list.
	outsideAddr := lP.Addr().String()
	pool := NewEndpointPool([]string{addrA, outsideAddr},
		WithEndpointClientOptions(fastRetry(1)...))
	if err := pool.SyncMembership(ctx); err != nil {
		t.Fatal(err)
	}
	addrs := func() map[string]bool {
		out := map[string]bool{}
		for _, e := range pool.Endpoints() {
			out[e.Addr] = true
		}
		return out
	}
	if got := addrs(); !got[addrB] || got[outsideAddr] || !got[addrA] {
		t.Fatalf("pool after sync = %v, want A+B", got)
	}

	// Kill B; once the mesh declares it dead the sync drops it.
	killB()
	waitFor(t, "B declared dead", func() bool {
		st, _ := memberStatus(srvA.Members(), addrB)
		return st == MemberDead
	})
	if err := pool.SyncMembership(ctx); err != nil {
		t.Fatal(err)
	}
	if got := addrs(); got[addrB] || got[outsideAddr] || !got[addrA] {
		t.Fatalf("pool after death sync = %v, want A only", got)
	}
}

// TestPoolApplyMembersRules pins the pool resize rules in isolation.
func TestPoolApplyMembersRules(t *testing.T) {
	pool := NewEndpointPool([]string{"a:1", "outside:1"})
	added, removed := pool.applyMembers([]Member{
		{Addr: "a:1", Status: MemberAlive},
		{Addr: "b:1", Status: MemberAlive},
		{Addr: "c:1", Status: MemberSuspect}, // suspect is still serving
	})
	// outside is configured but absent from the view: only a seed, dropped.
	if len(added) != 2 || len(removed) != 1 || removed[0] != "outside:1" {
		t.Fatalf("first sync: added %v removed %v, want 2 added, [outside:1] removed", added, removed)
	}
	// b dies, c vanishes from the view; both are dropped.
	_, removed = pool.applyMembers([]Member{
		{Addr: "a:1", Status: MemberAlive},
		{Addr: "b:1", Status: MemberDead},
	})
	if len(removed) != 2 {
		t.Fatalf("second sync removed %v, want [b:1 c:1]", removed)
	}
	got := map[string]bool{}
	for _, e := range pool.Endpoints() {
		got[e.Addr] = true
	}
	if !got["a:1"] || got["outside:1"] || got["b:1"] || got["c:1"] {
		t.Fatalf("pool = %v, want a only", got)
	}
	// A configured endpoint is dropped while the fleet says dead — and
	// re-admitted when it rejoins.
	pool.applyMembers([]Member{{Addr: "a:1", Status: MemberDead}})
	if pool.has("a:1") {
		t.Fatal("dead configured endpoint kept")
	}
	pool.applyMembers([]Member{{Addr: "a:1", Status: MemberAlive}})
	if !pool.has("a:1") {
		t.Fatal("rejoined configured endpoint not re-admitted")
	}
}

// TestAntiEntropyConvergence: a cold replica pulls the fleet's resume
// records via digest exchange — no client traffic, no fetch path.
func TestAntiEntropyConvergence(t *testing.T) {
	ca, _ := env(t)
	key := bytes.Repeat([]byte{0x44}, 32)
	lA, lB := listen(t), listen(t)
	addrA, addrB := lA.Addr().String(), lB.Addr().String()
	aB := obs.NewAuditLog(0)
	mA, mB := obs.NewRegistry(), obs.NewRegistry()

	srvA := plainServer(t, ca, gossipOpts(key, addrA, mA, nil)...)
	const records = 20
	for i := 0; i < records; i++ {
		srvA.resume.Put(freshRecord(time.Minute))
	}
	// One record already expired: it must not cross.
	srvA.resume.Put(freshRecord(-time.Minute))

	serveKill(t, srvA, lA)
	srvB := plainServer(t, ca, gossipOpts(key, addrB, mB, aB, addrA)...)
	serveKill(t, srvB, lB)

	waitFor(t, "anti-entropy convergence", func() bool {
		return srvB.ResumeLen() >= records
	})
	if got := srvB.ResumeLen(); got != records {
		t.Fatalf("cold replica holds %d records, want exactly %d (expired must not cross)", got, records)
	}
	if aB.Counts()[obs.AuditAntiEntropy] == 0 {
		t.Error("no anti_entropy_sync audit event on the cold replica")
	}
	if mB.Counter("server.anti_entropy_adopted").Load() != records {
		t.Errorf("anti_entropy_adopted = %d, want %d",
			mB.Counter("server.anti_entropy_adopted").Load(), records)
	}
}

// TestReplicationDropAuditAndHealth (satellite): push-queue overflow
// emits one rate-limited audit event and degrades ReplicationHealth for
// the drop window.
func TestReplicationDropAuditAndHealth(t *testing.T) {
	key := bytes.Repeat([]byte{0x66}, 16)
	audit := obs.NewAuditLog(0)
	o := serverOptions{
		fleetKey: key,
		metrics:  obs.NewRegistry(),
		audit:    audit,
	}
	// No Serve runs the pump, so the queue backs up deterministically.
	f := newFleet(&o, newLRUResumeStore(0))
	f.dropMu.Lock()
	f.dropInterval = time.Hour
	f.dropWindow = 250 * time.Millisecond
	f.dropMu.Unlock()

	rec := freshRecord(time.Minute)
	// Queue capacity + slack: guarantees drops.
	for i := 0; i < peerPushQueue+50; i++ {
		f.broadcast(rec)
	}
	if got := o.metrics.Counter("server.resume_replicate_dropped").Load(); got == 0 {
		t.Fatal("no drops counted with no pump and a full queue")
	}
	if got := audit.Counts()[obs.AuditResumeReplicationDropped]; got != 1 {
		t.Fatalf("drop audit events = %d, want exactly 1 (rate-limited)", got)
	}
	if err := f.healthCheck(); err == nil {
		t.Fatal("healthCheck nil right after drops, want degraded")
	}

	// The next interval's first drop emits again.
	f.dropMu.Lock()
	f.lastDropAudit = time.Now().Add(-2 * time.Hour)
	f.dropMu.Unlock()
	f.broadcast(rec)
	if got := audit.Counts()[obs.AuditResumeReplicationDropped]; got != 2 {
		t.Fatalf("drop audit events = %d after a new interval, want 2", got)
	}

	// Health recovers once the window passes without further drops.
	waitFor(t, "replication health recovery", func() bool {
		return f.healthCheck() == nil
	})
}

// TestKeylessSeedDeclaredDead: a seed without a fleet key refuses the
// peer link, so it fails its probes like a member that is down: it turns
// suspect, then dead, and leaves the push targets.
func TestKeylessSeedDeclaredDead(t *testing.T) {
	ca, _ := env(t)
	key := bytes.Repeat([]byte{0x55}, 32)
	lA, lK := listen(t), listen(t)
	addrA, addrK := lA.Addr().String(), lK.Addr().String()
	serveKill(t, plainServer(t, ca), lK)
	srvA := plainServer(t, ca, gossipOpts(key, addrA, obs.NewRegistry(), nil, addrK)...)
	serveKill(t, srvA, lA)

	waitFor(t, "keyless seed declared dead", func() bool {
		st, _ := memberStatus(srvA.Members(), addrK)
		return st == MemberDead
	})
	for _, p := range srvA.fleet.targets() {
		if p.addr == addrK {
			t.Fatal("dead keyless seed is still a push target")
		}
	}
}

// countedConn counts a peer link as open until its first Close.
type countedConn struct {
	net.Conn
	open *atomic.Int64
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.open.Add(-1) })
	return c.Conn.Close()
}

// TestFleetStopsWithServe: a member replicates only while it serves. Once
// Serve returns every peer link is closed, and a later broadcast reaches
// no peer.
func TestFleetStopsWithServe(t *testing.T) {
	ca, _ := env(t)
	key := bytes.Repeat([]byte{0x58}, 32)
	lA, lB := listen(t), listen(t)
	addrA, addrB := lA.Addr().String(), lB.Addr().String()
	var open atomic.Int64
	countingDial := func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := defaultPeerDial(addr, timeout)
		if err != nil {
			return nil, err
		}
		open.Add(1)
		return &countedConn{Conn: c, open: &open}, nil
	}
	mB := obs.NewRegistry()
	serveKill(t, plainServer(t, ca, gossipOpts(key, addrB, mB, nil)...), lB)
	srvA := plainServer(t, ca, append(gossipOpts(key, addrA, obs.NewRegistry(), nil, addrB),
		withPeerDialer(countingDial))...)
	killA := serveKill(t, srvA, lA)

	srvA.fleet.broadcast(freshRecord(time.Minute))
	waitCounter(t, mB, "server.resume_replicated", 1)
	killA()
	if n := open.Load(); n != 0 {
		t.Fatalf("%d peer links still open after Serve returned", n)
	}
	srvA.fleet.broadcast(freshRecord(time.Minute))
	// An absence has no event to wait on: give a pump that outlived
	// Serve five gossip intervals to deliver.
	time.Sleep(50 * time.Millisecond)
	if got := mB.Counter("server.resume_replicated").Load(); got != 1 {
		t.Fatalf("peer received %d records, want only the one pushed while serving", got)
	}
	if n := open.Load(); n != 0 {
		t.Fatalf("%d peer links opened after Serve returned", n)
	}
}

// FuzzParseMembers: the member-list decoder, which a client runs on the
// plaintext reply of any server it dials, never panics, allocates in
// proportion to its input rather than to the count its header claims,
// and accepts only what marshalMembers produces.
func FuzzParseMembers(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var ms []Member
		var err error
		if got := heapBytes(func() { ms, err = parseMembers(data) }); got > decodeOverhead+8*uint64(len(data)) {
			t.Fatalf("decoding %d input bytes allocated %d bytes", len(data), got)
		}
		if err != nil {
			return
		}
		if out := marshalMembers(ms); !bytes.Equal(out, data) {
			t.Fatalf("re-marshaled %x, parsed %x", out, data)
		}
	})
}
