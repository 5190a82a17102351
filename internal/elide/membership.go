package elide

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"net"
	"sort"
	"sync"
	"time"

	"sgxelide/internal/obs"
	"sgxelide/internal/sdk"
)

// SWIM-style fleet membership (DESIGN §15): the static `-peers` list
// becomes seeds of a self-maintaining mesh. Every gossip interval a
// server probes one random member over the existing framed peer link —
// the ping payload is a full membership summary sealed under the fleet
// key, and the ack carries the receiver's summary back, so dissemination
// piggybacks on failure detection and any one live seed bootstraps the
// whole member set. A member that fails its direct probe is probed
// indirectly through up to two other members (ping-req); if those fail
// too it turns suspect, and an unrefuted suspicion past the suspect
// timeout turns dead. Incarnation numbers make the state machine
// self-healing: a falsely suspected member learns of the suspicion from
// the next delta it receives and refutes it by re-announcing itself with
// a bumped incarnation, and a restarted member rejoins the same way
// (incarnations are seeded from the boot clock, so a restart always
// out-bids its previous life).
//
// Rides on the mesh:
//
//   - anti-entropy: each round a server exchanges a digest of its resume
//     bindings with one random live member and adopts the fleet-key-
//     wrapped records it lacks — a cold-started replica converges on the
//     fleet's session state in a bounded number of rounds instead of
//     relying on per-miss fetches.
//   - churn-aware clients: a client can ask any fleet member for the
//     current member list (a members-query handshake, no fleet
//     key involved) and resize its failover pool to match the fleet.
//
// Wire security: membership deltas, ping-req targets, and digests cross
// the inter-server wire sealed under the fleet key — a node outside the
// fleet can neither forge a death certificate nor enumerate the mesh.
// The client-facing member list is plaintext: it carries topology only
// (addresses a client could learn anyway), never key material.

// Membership frame opcodes on the replication link, numbered after the
// replication opcodes.
const (
	peerOpPing    byte = 3 // payload: sealed member summary; reply: sealed receiver summary
	peerOpPingReq byte = 4 // payload: sealed target addr; reply: empty ack or refusal
	peerOpDigest  byte = 5 // payload: sealed binding digest; reply: records the sender lacks
)

// memberWireVersion versions the member-list encoding (both the sealed
// gossip form and the plaintext client form).
const memberWireVersion = 1

// maxWireMembers bounds a decoded member list — a hostile frame must not
// balloon into an unbounded allocation.
const maxWireMembers = 4096

// memberEntryHeader is the fixed part of one encoded member: status,
// incarnation, address length.
const memberEntryHeader = 1 + 8 + 2

// antiEntropyBatch caps records transferred per digest exchange; a far-
// behind replica converges over several rounds instead of one huge frame.
const antiEntropyBatch = 256

// deadProbeEvery: every Nth gossip round one random dead member is
// probed. This is the partition-heal path — two halves that declared
// each other dead rediscover each other without operator action.
const deadProbeEvery = 4

// MemberStatus is a member's place in the SWIM alive→suspect→dead state
// machine.
type MemberStatus uint8

const (
	MemberAlive   MemberStatus = iota // answering probes (or vouched for by the mesh)
	MemberSuspect                     // direct and indirect probes failed; awaiting refutation
	MemberDead                        // suspicion expired unrefuted
)

func (s MemberStatus) String() string {
	switch s {
	case MemberAlive:
		return "alive"
	case MemberSuspect:
		return "suspect"
	case MemberDead:
		return "dead"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Member is one fleet member as the mesh currently sees it.
type Member struct {
	Addr        string
	Incarnation uint64
	Status      MemberStatus
}

// memberState is the tracked state of one remote member.
type memberState struct {
	inc       uint64
	status    MemberStatus
	suspectAt time.Time // when the current suspicion started
}

// membership is the SWIM state machine: the local view of the fleet plus
// the precedence rules that merge remote views into it. It owns no I/O —
// the fleet drives it.
type membership struct {
	self    string
	metrics *obs.Registry
	audit   *obs.AuditLog

	// onDead hears of every declared death, so the fleet can close that
	// member's link (assigned at construction, never changed — safe to
	// call without mu held).
	onDead func(addr string)

	mu      sync.Mutex
	selfInc uint64
	members map[string]*memberState
}

func newMembership(self string, seeds []string, metrics *obs.Registry, audit *obs.AuditLog) *membership {
	m := &membership{
		self: self,
		// Seeding the incarnation from the boot clock means a restarted
		// member always announces itself with a higher incarnation than
		// its previous life, so its rejoin out-bids any stale suspect or
		// dead entry the mesh still holds for it.
		selfInc: uint64(time.Now().UnixNano()),
		members: make(map[string]*memberState),
		metrics: metrics,
		audit:   audit,
	}
	for _, s := range seeds {
		if s == self || s == "" {
			continue
		}
		m.members[s] = &memberState{status: MemberAlive}
	}
	return m
}

// snapshot returns the full local view — self first, then every tracked
// member (dead ones included: clients use them to shrink their pools,
// and the gossip layer uses them to suppress stale resurrections).
func (m *membership) snapshot() []Member {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Member, 0, len(m.members)+1)
	out = append(out, Member{Addr: m.self, Incarnation: m.selfInc, Status: MemberAlive})
	for addr, st := range m.members {
		out = append(out, Member{Addr: addr, Incarnation: st.inc, Status: st.status})
	}
	sort.Slice(out[1:], func(i, j int) bool { return out[i+1].Addr < out[j+1].Addr })
	return out
}

// merge folds a remote view into the local one under SWIM precedence:
// alive{i} beats alive/suspect{j} iff i > j; suspect{i} beats alive{j}
// iff i >= j and suspect{j} iff i > j; dead{i} beats alive/suspect{j}
// iff i >= j and is final until a strictly higher alive (a restart).
// An entry about self that is not alive is a suspicion to refute: self
// re-announces with an incarnation above the accuser's.
func (m *membership) merge(remote []Member) {
	m.mu.Lock()
	var revived, died, joined []string
	refuted := false
	for _, e := range remote {
		if e.Addr == "" {
			continue
		}
		if e.Addr == m.self {
			if e.Status != MemberAlive && e.Incarnation >= m.selfInc {
				m.selfInc = e.Incarnation + 1
				refuted = true
			}
			continue
		}
		st, ok := m.members[e.Addr]
		if !ok {
			st = &memberState{inc: e.Incarnation, status: e.Status}
			if e.Status == MemberSuspect {
				st.suspectAt = time.Now()
			}
			m.members[e.Addr] = st
			if e.Status != MemberDead {
				joined = append(joined, e.Addr)
			}
			continue
		}
		switch e.Status {
		case MemberAlive:
			if e.Incarnation > st.inc {
				was := st.status
				st.inc, st.status = e.Incarnation, MemberAlive
				if was != MemberAlive {
					revived = append(revived, e.Addr)
				}
			}
		case MemberSuspect:
			if (st.status == MemberAlive && e.Incarnation >= st.inc) ||
				(st.status == MemberSuspect && e.Incarnation > st.inc) {
				if st.status == MemberAlive {
					st.suspectAt = time.Now()
					m.auditTransition(obs.AuditMemberSuspect, e.Addr, e.Incarnation, "suspected via gossip")
				}
				st.inc, st.status = e.Incarnation, MemberSuspect
			}
		case MemberDead:
			if st.status != MemberDead && e.Incarnation >= st.inc {
				st.inc, st.status = e.Incarnation, MemberDead
				died = append(died, e.Addr)
			}
		}
	}
	m.mu.Unlock()

	if refuted {
		m.metrics.Counter("server.gossip_refutes").Inc()
		m.audit.Emit(obs.AuditEvent{Type: obs.AuditMemberAlive, Endpoint: m.self,
			Detail: "refuted a suspicion about self"})
	}
	for _, a := range joined {
		m.metrics.Counter("server.gossip_joins").Inc()
		m.auditTransition(obs.AuditMemberJoin, a, 0, "learned via gossip")
	}
	for _, a := range revived {
		m.auditTransition(obs.AuditMemberAlive, a, 0, "re-announced with a higher incarnation")
	}
	for _, a := range died {
		m.metrics.Counter("server.gossip_deaths").Inc()
		m.auditTransition(obs.AuditMemberDead, a, 0, "declared dead via gossip")
		m.notifyDead(a)
	}
}

// observeAck records that addr answered a probe, directly or through
// another member, reviving it if the merged deltas have not already.
func (m *membership) observeAck(addr string) {
	m.mu.Lock()
	st, ok := m.members[addr]
	transition := ok && st.status != MemberAlive
	if transition {
		// The bump is fabricated locally; the member's own next delta
		// carries its real incarnation and wins if higher.
		st.inc++
		st.status = MemberAlive
	}
	m.mu.Unlock()
	if transition {
		m.auditTransition(obs.AuditMemberAlive, addr, 0, "answered a probe")
	}
}

// suspect marks a member whose direct and indirect probes all failed.
func (m *membership) suspect(addr string) {
	m.mu.Lock()
	st, ok := m.members[addr]
	transition := ok && st.status == MemberAlive
	if transition {
		st.status = MemberSuspect
		st.suspectAt = time.Now()
	}
	m.mu.Unlock()
	if transition {
		m.metrics.Counter("server.gossip_suspects").Inc()
		m.auditTransition(obs.AuditMemberSuspect, addr, 0, "direct and indirect probes failed")
	}
}

// sweep declares suspects past the timeout dead.
func (m *membership) sweep(now time.Time, timeout time.Duration) {
	m.mu.Lock()
	var died []string
	for addr, st := range m.members {
		if st.status == MemberSuspect && now.Sub(st.suspectAt) >= timeout {
			st.status = MemberDead
			died = append(died, addr)
		}
	}
	m.mu.Unlock()
	for _, a := range died {
		m.metrics.Counter("server.gossip_deaths").Inc()
		m.auditTransition(obs.AuditMemberDead, a, 0, "suspicion expired unrefuted")
		m.notifyDead(a)
	}
}

// live returns every member not declared dead.
func (m *membership) live() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.members))
	for addr, st := range m.members {
		if st.status != MemberDead {
			out = append(out, addr)
		}
	}
	return out
}

// pickProbe returns one random non-dead member to probe this round.
func (m *membership) pickProbe() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return pickRandom(m.members, func(st *memberState) bool { return st.status != MemberDead })
}

// pickDead returns one random dead member (the partition-heal re-probe).
func (m *membership) pickDead() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return pickRandom(m.members, func(st *memberState) bool { return st.status == MemberDead })
}

// pickAliveExcept returns up to n random alive members other than skip —
// the indirect-probe helpers.
func (m *membership) pickAliveExcept(skip string, n int) []string {
	m.mu.Lock()
	var cands []string
	for addr, st := range m.members {
		if addr != skip && st.status == MemberAlive {
			cands = append(cands, addr)
		}
	}
	m.mu.Unlock()
	rand.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	if len(cands) > n {
		cands = cands[:n]
	}
	return cands
}

func pickRandom(members map[string]*memberState, keep func(*memberState) bool) string {
	var cands []string
	for addr, st := range members {
		if keep(st) {
			cands = append(cands, addr)
		}
	}
	if len(cands) == 0 {
		return ""
	}
	return cands[rand.IntN(len(cands))]
}

func (m *membership) auditTransition(typ, addr string, inc uint64, detail string) {
	ev := obs.AuditEvent{Type: typ, Endpoint: addr, Detail: detail}
	if inc != 0 {
		ev.Detail = fmt.Sprintf("%s (incarnation %d)", detail, inc)
	}
	m.audit.Emit(ev)
}

func (m *membership) notifyDead(addr string) {
	if m.onDead != nil {
		m.onDead(addr)
	}
}

// --- wire encoding ---

// marshalMembers encodes a member list:
//
//	u8 version || u16 count || count × (u8 status || u64 incarnation || u16 addrLen || addr)
func marshalMembers(ms []Member) []byte {
	n := 4
	for _, m := range ms {
		n += memberEntryHeader + len(m.Addr)
	}
	b := make([]byte, 0, n)
	b = append(b, memberWireVersion)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(ms)))
	for _, m := range ms {
		b = append(b, byte(m.Status))
		b = binary.LittleEndian.AppendUint64(b, m.Incarnation)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(m.Addr)))
		b = append(b, m.Addr...)
	}
	return b
}

func parseMembers(b []byte) ([]Member, error) {
	if len(b) < 3 || b[0] != memberWireVersion {
		return nil, fmt.Errorf("elide: malformed member list")
	}
	count := int(binary.LittleEndian.Uint16(b[1:3]))
	if count > maxWireMembers {
		return nil, fmt.Errorf("elide: member list too large (%d)", count)
	}
	b = b[3:]
	// The count is unauthenticated on the client path: size the list by
	// the entries the bytes can hold, not by what the header claims.
	out := make([]Member, 0, min(count, len(b)/memberEntryHeader))
	for i := 0; i < count; i++ {
		if len(b) < memberEntryHeader {
			return nil, fmt.Errorf("elide: truncated member list")
		}
		status := MemberStatus(b[0])
		if status > MemberDead {
			return nil, fmt.Errorf("elide: unknown member status %d", b[0])
		}
		inc := binary.LittleEndian.Uint64(b[1:9])
		alen := int(binary.LittleEndian.Uint16(b[9:memberEntryHeader]))
		b = b[memberEntryHeader:]
		if len(b) < alen {
			return nil, fmt.Errorf("elide: truncated member list")
		}
		out = append(out, Member{Addr: string(b[:alen]), Incarnation: inc, Status: status})
		b = b[alen:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("elide: trailing bytes after member list")
	}
	return out, nil
}

// marshalDigest encodes the anti-entropy digest: u32 count || 32-byte
// bindings. Bindings are SHA-256 values — they identify records without
// revealing anything about the channels behind them.
func marshalDigest(bindings [][32]byte) []byte {
	b := make([]byte, 0, 4+32*len(bindings))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(bindings)))
	for i := range bindings {
		b = append(b, bindings[i][:]...)
	}
	return b
}

func parseDigest(b []byte) (map[[32]byte]struct{}, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("elide: malformed digest")
	}
	count := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if len(b) != 32*count {
		return nil, fmt.Errorf("elide: digest length mismatch")
	}
	set := make(map[[32]byte]struct{}, count)
	for i := 0; i < count; i++ {
		var k [32]byte
		copy(k[:], b[32*i:])
		set[k] = struct{}{}
	}
	return set, nil
}

// --- the gossip loop: probes, dissemination, anti-entropy ---

// gossip is the gossip loop: one round per interval — a suspect sweep,
// a probe, a digest exchange with one random live member — until ctx
// ends.
func (f *fleet) gossip(ctx context.Context) {
	t := time.NewTicker(f.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			f.tick()
		}
	}
}

func (f *fleet) tick() {
	f.round++
	f.metrics.Counter("server.gossip_rounds").Inc()
	f.m.sweep(time.Now(), f.suspectTimeout)
	if target := f.m.pickProbe(); target != "" {
		f.probe(target)
	}
	if f.round%deadProbeEvery == 0 {
		if target := f.m.pickDead(); target != "" {
			f.probe(target)
		}
	}
	if peer := f.m.pickProbe(); peer != "" {
		f.antiEntropy(peer)
	}
}

// sealedSummary is the ping payload: the local view, sealed.
func (f *fleet) sealedSummary() ([]byte, error) {
	return sealEncrypt(f.fleetKey, marshalMembers(f.m.snapshot()))
}

// mergeSealed folds a sealed remote summary into the local view.
func (f *fleet) mergeSealed(payload []byte) error {
	plain, err := sealDecrypt(f.fleetKey, payload)
	if err != nil {
		return err
	}
	defer sdk.Wipe(plain)
	ms, err := parseMembers(plain)
	if err != nil {
		return err
	}
	f.m.merge(ms)
	return nil
}

// probe runs one SWIM probe: direct ping, then up to two indirect
// ping-reqs, then suspicion. A member that refuses the link or the ping
// fails the probe like one that is down.
func (f *fleet) probe(addr string) {
	if f.ping(addr) {
		return
	}
	// Direct probe failed: ask up to two other live members to vouch.
	target, serr := sealEncrypt(f.fleetKey, []byte(addr))
	if serr == nil {
		for _, h := range f.m.pickAliveExcept(addr, 2) {
			if _, herr := f.link(h).roundTrip(peerOpPingReq, target, true); herr == nil {
				f.metrics.Counter("server.gossip_indirect_acks").Inc()
				f.m.observeAck(addr)
				return
			}
		}
	}
	f.m.suspect(addr)
}

// servePingReq handles one incoming ping-req frame: open the sealed
// target address and ping it on the requester's behalf. The error
// return distinguishes a malformed frame from an unreachable target.
func (f *fleet) servePingReq(payload []byte) (reached bool, err error) {
	target, err := sealDecrypt(f.fleetKey, payload)
	if err != nil {
		return false, err
	}
	defer sdk.Wipe(target)
	return f.ping(string(target)), nil
}

// ping sends addr the sealed local view and merges its reply; it reports
// whether addr answered.
func (f *fleet) ping(addr string) bool {
	payload, err := f.sealedSummary()
	if err != nil {
		f.metrics.Counter("server.gossip_errors").Inc()
		return false
	}
	resp, err := f.link(addr).roundTrip(peerOpPing, payload, true)
	if err != nil {
		return false
	}
	if merr := f.mergeSealed(resp); merr != nil {
		f.metrics.Counter("server.gossip_bad_delta").Inc()
	}
	f.m.observeAck(addr)
	return true
}

// antiEntropy runs one digest exchange with addr: send the local binding
// set, adopt every wrapped record the peer holds that we lack.
func (f *fleet) antiEntropy(addr string) {
	sealed, err := sealEncrypt(f.fleetKey, marshalDigest(f.resume.Bindings()))
	if err != nil {
		f.metrics.Counter("server.gossip_errors").Inc()
		return
	}
	resp, err := f.link(addr).roundTrip(peerOpDigest, sealed, true)
	if err != nil {
		// No sync this round; the probe path owns liveness bookkeeping.
		return
	}
	adopted, err := f.adoptRecords(resp)
	if err != nil {
		f.metrics.Counter("server.anti_entropy_bad").Inc()
		return
	}
	if adopted > 0 {
		f.metrics.Counter("server.anti_entropy_adopted").Add(uint64(adopted))
		f.audit.Emit(obs.AuditEvent{Type: obs.AuditAntiEntropy, Endpoint: addr,
			Detail: fmt.Sprintf("adopted %d resume records", adopted)})
	}
}

// adoptRecords parses a digest reply — u32 count || count × (u32 len ||
// wrapped record) — and stores every record that authenticates.
func (f *fleet) adoptRecords(b []byte) (int, error) {
	if len(b) < 4 {
		return 0, fmt.Errorf("elide: malformed digest reply")
	}
	count := int(binary.LittleEndian.Uint32(b))
	if count > antiEntropyBatch {
		return 0, fmt.Errorf("elide: digest reply too large (%d)", count)
	}
	b = b[4:]
	adopted := 0
	now := time.Now()
	for i := 0; i < count; i++ {
		if len(b) < 4 {
			return adopted, fmt.Errorf("elide: truncated digest reply")
		}
		rlen := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if rlen > len(b) {
			return adopted, fmt.Errorf("elide: truncated digest reply")
		}
		rec, err := openResumeRecord(f.fleetKey, b[:rlen])
		b = b[rlen:]
		if err != nil || rec.expired(now) {
			f.metrics.Counter("server.anti_entropy_bad").Inc()
			continue
		}
		f.resume.Put(rec)
		adopted++
	}
	return adopted, nil
}

// serveDigest is the accepting half of anti-entropy: open the sealed
// digest, reply with up to antiEntropyBatch wrapped records the sender
// lacks.
func (f *fleet) serveDigest(payload []byte) ([]byte, error) {
	plain, err := sealDecrypt(f.fleetKey, payload)
	if err != nil {
		return nil, err
	}
	defer sdk.Wipe(plain)
	theirs, err := parseDigest(plain)
	if err != nil {
		return nil, err
	}
	var out []byte
	out = binary.LittleEndian.AppendUint32(out, 0)
	sent := 0
	for _, binding := range f.resume.Bindings() {
		if sent >= antiEntropyBatch {
			break
		}
		if _, have := theirs[binding]; have {
			continue
		}
		rec, ok, _ := f.resume.Get(binding)
		if !ok {
			continue // raced with eviction
		}
		wrapped, err := wrapResumeRecord(f.fleetKey, rec)
		if err != nil {
			continue
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(len(wrapped)))
		out = append(out, wrapped...)
		sent++
	}
	binary.LittleEndian.PutUint32(out, uint32(sent))
	if sent > 0 {
		f.metrics.Counter("server.anti_entropy_served").Add(uint64(sent))
	}
	return out, nil
}

// --- server-side frame handlers ---

// handleMembersQuery answers a client's membership query with the
// plaintext member list (self included) and ends the session. A server
// outside any fleet refuses.
func (s *Server) handleMembersQuery(conn net.Conn) error {
	s.armDeadline(conn)
	if s.fleet == nil {
		_ = writeErrorFrame(conn, "fleet membership not enabled")
		return nil
	}
	s.opt.metrics.Counter("server.membership_queries").Inc()
	return writeResponse(conn, marshalMembers(s.fleet.m.snapshot()))
}

// Members returns the fleet as this server currently sees it (nil
// outside a fleet). The first entry is the server itself.
func (s *Server) Members() []Member {
	if s.fleet == nil {
		return nil
	}
	return s.fleet.m.snapshot()
}

// ResumeLen reports how many resume records this server currently holds —
// the convergence observable for anti-entropy.
func (s *Server) ResumeLen() int { return s.resume.Len() }

// --- client-side membership query ---

// membershipQuerier is the capability a channel implementation exposes
// when it can fetch the fleet member list; TCPClient implements it and
// EndpointPool.SyncMembership discovers it by assertion (same idiom as
// sessionResumer).
type membershipQuerier interface {
	Members(ctx context.Context) ([]Member, error)
}

// Members asks the server for its current fleet member list over a fresh
// connection (the query is terminal: the server answers and closes). A
// server outside any fleet answers with a refusal (ErrRefused).
func (c *TCPClient) Members(ctx context.Context) ([]Member, error) {
	dctx, cancel := context.WithTimeout(ctx, c.opt.dialTimeout)
	conn, err := c.opt.dial(dctx, c.addr)
	cancel()
	if err != nil {
		return nil, err
	}
	defer func() { _ = conn.Close() }()
	if d, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(d)
	} else {
		_ = conn.SetDeadline(time.Now().Add(c.opt.requestTimeout))
	}
	if err := writeHandshake(conn, &attestMsg{Kind: kindMembers}); err != nil {
		return nil, err
	}
	resp, err := readResponse(conn)
	if err != nil {
		return nil, err
	}
	c.opt.metrics.Counter("client.membership_queries").Inc()
	return parseMembers(resp)
}
