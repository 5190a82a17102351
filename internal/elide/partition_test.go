package elide

import (
	"bytes"
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"sgxelide/internal/obs"
	"sgxelide/internal/sgx"
)

// TestPartitionHealConvergence (DESIGN §15): two fleet halves accumulate
// disjoint resume records while partitioned, both declare the other side
// dead, and when the partition heals the dead-member re-probe revives the
// link and anti-entropy converges both stores — so every session
// established on either side resumes on the other with zero extra
// attestation flights.
func TestPartitionHealConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("enclave quote generation in -short")
	}
	ca, h := env(t)
	p := buildApp(t, h, SanitizeOptions{})
	lA, lB := listen(t), listen(t)
	addrA, addrB := lA.Addr().String(), lB.Addr().String()
	key := bytes.Repeat([]byte{0x77}, 32)
	mA, mB := obs.NewRegistry(), obs.NewRegistry()
	aA, aB := obs.NewAuditLog(0), obs.NewAuditLog(0)

	// The partition is a dialer gate: while up, every peer-link dial —
	// gossip pings, pushes, digests — fails as if the network dropped it.
	var partitioned atomic.Bool
	gatedDial := func(addr string, timeout time.Duration) (net.Conn, error) {
		if partitioned.Load() {
			return nil, errNet("partitioned")
		}
		return defaultPeerDial(addr, timeout)
	}
	fleetOpts := func(self, peer string, m *obs.Registry, a *obs.AuditLog) []ServerOption {
		return []ServerOption{
			WithDrainTimeout(50 * time.Millisecond),
			WithServerMetrics(m), WithServerAudit(a),
			WithFleet(key, self, peer),
			WithGossipInterval(10 * time.Millisecond),
			WithSuspectTimeout(60 * time.Millisecond),
			withPeerDialer(gatedDial),
		}
	}
	srvA, err := p.NewServerFor(ca, fleetOpts(addrA, addrB, mA, aA)...)
	if err != nil {
		t.Fatal(err)
	}
	srvB, err := p.NewServerFor(ca, fleetOpts(addrB, addrA, mB, aB)...)
	if err != nil {
		t.Fatal(err)
	}
	serveKill(t, srvA, lA)
	serveKill(t, srvB, lB)

	statusAt := func(srv *Server, addr string) MemberStatus {
		st, _ := memberStatus(srv.Members(), addr)
		return st
	}
	waitFor(t, "mutual alive before the partition", func() bool {
		return statusAt(srvA, addrB) == MemberAlive && statusAt(srvB, addrA) == MemberAlive
	})

	partitioned.Store(true)
	waitFor(t, "both sides declare the other dead", func() bool {
		return statusAt(srvA, addrB) == MemberDead && statusAt(srvB, addrA) == MemberDead
	})

	// Disjoint load: sessions land on each half independently.
	encl := loadQuoteOnly(t, h, p)
	ctx := context.Background()
	const perSide = 3
	type session struct {
		q    *sgx.Quote
		cpub []byte
		pub  []byte
	}
	establish := func(addr string) []session {
		out := make([]session, perSide)
		for i := range out {
			q, cpub := freshQuote(t, h, encl)
			pub, err := v1Client(addr).Attest(ctx, q, cpub)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = session{q: q, cpub: cpub, pub: pub}
		}
		return out
	}
	onA, onB := establish(addrA), establish(addrB)
	if la, lb := srvA.ResumeLen(), srvB.ResumeLen(); la != perSide || lb != perSide {
		t.Fatalf("records crossed the partition: A=%d B=%d, want %d each", la, lb, perSide)
	}
	attestsA := mA.Counter("server.attest_ok").Load()
	attestsB := mB.Counter("server.attest_ok").Load()

	// Heal. The periodic dead-member re-probe carries our view of the
	// peer (dead), the peer refutes with a higher incarnation, both
	// revive — and the next anti-entropy round swaps the missing records.
	partitioned.Store(false)
	waitFor(t, "revival after heal", func() bool {
		return statusAt(srvA, addrB) == MemberAlive && statusAt(srvB, addrA) == MemberAlive
	})
	waitFor(t, "anti-entropy convergence after heal", func() bool {
		return srvA.ResumeLen() == 2*perSide && srvB.ResumeLen() == 2*perSide
	})

	// Every session resumes on the *other* half, byte-identical channel.
	for _, s := range onA {
		pub, err := v1Client(addrB).ResumeAttest(ctx, s.q, s.cpub)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pub, s.pub) {
			t.Fatal("cross-partition resume returned a different server key")
		}
	}
	for _, s := range onB {
		pub, err := v1Client(addrA).ResumeAttest(ctx, s.q, s.cpub)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pub, s.pub) {
			t.Fatal("cross-partition resume returned a different server key")
		}
	}
	if got := mA.Counter("server.attest_ok").Load(); got != attestsA {
		t.Fatalf("A ran %d extra attest flights post-heal", got-attestsA)
	}
	if got := mB.Counter("server.attest_ok").Load(); got != attestsB {
		t.Fatalf("B ran %d extra attest flights post-heal", got-attestsB)
	}
	for name, counts := range map[string]map[string]uint64{"A": aA.Counts(), "B": aB.Counts()} {
		if counts[obs.AuditMemberDead] == 0 {
			t.Errorf("%s: no member_dead audit event during the partition", name)
		}
		if counts[obs.AuditMemberAlive] == 0 {
			t.Errorf("%s: no member_alive audit event after the heal", name)
		}
	}
}

// errNet is a throwaway error type so the gate reads as a network fault.
type errNet string

func (e errNet) Error() string { return string(e) }
