package elide

import (
	"bufio"
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"sgxelide/internal/obs"
)

// Replicated session resumption (DESIGN §14): each server pushes its
// freshly established channels to its fleet peers, and on a resume miss
// for a *replayed* handshake it synchronously asks the peers, so a client
// failing over mid-protocol lands on a replica that already holds (or can
// fetch) its channel — zero extra attestation flights instead of a full
// re-attest.
//
// The peer link rides the existing framed transport: the dialing server
// opens it with a peer-link handshake (handshake.go). An accepting server
// that has a fleet key acks with its protocol version and then serves
// replication frames; one without a fleet key refuses, which the dialer
// treats as a link error like a dead peer:
//
//	push:  op(1)=peerOpPush  || wrapped record      (no reply)
//	fetch: op(1)=peerOpFetch || binding(32)         (reply: wrapped record, or a refusal on miss)
//
// plus the gossip/anti-entropy opcodes (peerOpPing, peerOpPingReq,
// peerOpDigest — see membership.go). A gossip-off server answers those
// with a refusal and the link survives, so it keeps replicating.
//
// Records cross the wire ONLY as wrapResumeRecord blobs — AES-GCM under
// the shared fleet sealing key — so the transport carries no cleartext
// channel keys, forged frames fail authentication, and replay is bounded
// by the in-record expiry.
//
// The peer set is no longer frozen at construction: the gossip layer
// (membership.go) adds members it discovers and retires members declared
// dead, so pushes track the live fleet. The statically configured peers
// remain as seeds either way.

// Replication-link frame opcodes (3+ are in membership.go).
const (
	peerOpPush  byte = 1 // payload: wrapped record; no reply
	peerOpFetch byte = 2 // payload: 32-byte binding; reply: wrapped record or refusal
)

// peerPushQueue bounds the async push backlog; beyond it pushes are
// dropped (counted, audited, and surfaced by ReplicationHealth) rather
// than blocking the attest path.
const peerPushQueue = 256

// dropAuditInterval rate-limits AuditResumeReplicationDropped: the first
// drop of each interval emits, the rest only count.
const dropAuditInterval = time.Minute

// dropHealthWindow is how long after the last drop ReplicationHealth
// keeps reporting degraded.
const dropHealthWindow = time.Minute

// peerDialFunc dials one fleet peer; the default is net.DialTimeout, and
// partition tests swap in a gate.
type peerDialFunc func(addr string, timeout time.Duration) (net.Conn, error)

func defaultPeerDial(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

// writePeerFrame writes one replication-link frame: op || payload.
//
// SECURITY: this is the inter-server wire. elide-vet's secretflow model
// treats it as a sink — only fleet-key-wrapped blobs (wrapResumeRecord,
// sealed membership summaries/digests) and binding hashes may ever be
// passed here, never raw channel keys.
func writePeerFrame(w io.Writer, op byte, payload []byte) error {
	return writeWireFrame(w, int(op), payload)
}

// resumePeer is the dialer-side state of one replication link: a lazily
// dialed, persistently reused connection.
type resumePeer struct {
	addr string
	dial peerDialFunc

	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
}

func (p *resumePeer) closeLocked() {
	if p.conn != nil {
		_ = p.conn.Close() // link is being abandoned; the close error is moot
		p.conn, p.br = nil, nil
	}
}

func (p *resumePeer) close() {
	p.mu.Lock()
	p.closeLocked()
	p.mu.Unlock()
}

// ensureLocked dials the peer and runs the replication handshake.
func (p *resumePeer) ensureLocked(dialTimeout, opTimeout time.Duration) error {
	if p.conn != nil {
		return nil
	}
	conn, err := p.dial(p.addr, dialTimeout)
	if err != nil {
		return err
	}
	_ = conn.SetDeadline(time.Now().Add(opTimeout))
	if err := writeHandshake(conn, &attestMsg{Kind: kindPeerLink}); err != nil {
		_ = conn.Close()
		return err
	}
	br := bufio.NewReader(conn)
	ack, err := readResponse(br)
	if err != nil {
		_ = conn.Close()
		return err
	}
	if len(ack) != 1 || ack[0] != ProtoV1 {
		_ = conn.Close()
		return fmt.Errorf("elide: unexpected replication ack from %s (%d bytes)", p.addr, len(ack))
	}
	p.conn, p.br = conn, br
	return nil
}

// roundTrip sends one frame (reading the reply when want is set),
// redialing once on a stale connection. A refusal reply is an answer
// (fetch miss, gossip op on a gossip-off peer), not a link failure, and
// does not burn the connection.
func (p *resumePeer) roundTrip(op byte, payload []byte, want bool, dialTimeout, opTimeout time.Duration) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var last error
	for attempt := 0; attempt < 2; attempt++ {
		if err := p.ensureLocked(dialTimeout, opTimeout); err != nil {
			return nil, err
		}
		_ = p.conn.SetDeadline(time.Now().Add(opTimeout))
		err := writePeerFrame(p.conn, op, payload)
		if err == nil {
			if !want {
				return nil, nil
			}
			var resp []byte
			resp, err = readResponse(p.br)
			if err == nil {
				return resp, nil
			}
			if errors.Is(err, ErrRefused) {
				return nil, err
			}
		}
		p.closeLocked()
		last = err
	}
	return nil, last
}

// resumeReplicator is the dialer side of the replication layer: an async
// push pump broadcasting fresh channels to every live peer, and a
// synchronous peer fetch for resume misses. The peer set is dynamic —
// the gossip layer adds discovered members and retires dead ones; the
// statically configured addresses are the seeds.
type resumeReplicator struct {
	fleetKey    []byte
	metrics     *obs.Registry
	audit       *obs.AuditLog
	dialTimeout time.Duration
	opTimeout   time.Duration
	dial        peerDialFunc

	mu    sync.Mutex
	peers map[string]*resumePeer
	dead  map[string]bool

	queue chan ResumeRecord
	once  sync.Once

	// Push-drop bookkeeping: sustained drops mean fresh channels are not
	// reaching the fleet, so the first drop per interval is audited and
	// ReplicationHealth degrades for dropHealthWindow after the last one.
	dropMu        sync.Mutex
	drops         uint64
	lastDrop      time.Time
	lastDropAudit time.Time
	dropInterval  time.Duration // audit rate limit (test seam)
	dropWindow    time.Duration // health degradation window (test seam)
}

func newResumeReplicator(o *serverOptions) *resumeReplicator {
	r := &resumeReplicator{
		fleetKey:     o.fleetKey,
		metrics:      o.metrics,
		audit:        o.audit,
		dialTimeout:  DefaultDialTimeout,
		opTimeout:    DefaultPeerOpTimeout,
		dial:         o.peerDial,
		peers:        make(map[string]*resumePeer),
		dead:         make(map[string]bool),
		queue:        make(chan ResumeRecord, peerPushQueue),
		dropInterval: dropAuditInterval,
		dropWindow:   dropHealthWindow,
	}
	if r.dial == nil {
		r.dial = defaultPeerDial
	}
	for _, a := range o.peers {
		if a != "" && a != o.gossipSelf {
			r.peerFor(a)
		}
	}
	return r
}

// peerFor returns the link for addr, creating it on first use (the
// gossip layer calls this for discovered members).
func (r *resumeReplicator) peerFor(addr string) *resumePeer {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.peers[addr]
	if !ok {
		p = &resumePeer{addr: addr, dial: r.dial}
		r.peers[addr] = p
	}
	return p
}

// activePeers snapshots the links not currently declared dead.
func (r *resumeReplicator) activePeers() []*resumePeer {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*resumePeer, 0, len(r.peers))
	for addr, p := range r.peers {
		if !r.dead[addr] {
			out = append(out, p)
		}
	}
	return out
}

// markDead retires a peer the mesh declared dead: pushes and fetches
// skip it and its link is torn down. The entry itself stays — markAlive
// revives it when the member rejoins.
func (r *resumeReplicator) markDead(addr string) {
	r.mu.Lock()
	r.dead[addr] = true
	p := r.peers[addr]
	r.mu.Unlock()
	if p != nil {
		p.close()
	}
}

// markAlive (re)admits a peer: newly discovered members enter the push
// set here, and a dead member that refuted or rejoined comes back.
func (r *resumeReplicator) markAlive(addr string) {
	r.mu.Lock()
	delete(r.dead, addr)
	r.mu.Unlock()
	r.peerFor(addr)
}

// broadcast enqueues one record for async push to every peer. The attest
// path must never block on a slow peer, so a full queue drops (counted,
// audited at most once per interval, surfaced via ReplicationHealth).
func (r *resumeReplicator) broadcast(rec ResumeRecord) {
	r.once.Do(func() { go r.pump() })
	select {
	case r.queue <- rec:
	default:
		r.metrics.Counter("server.resume_replicate_dropped").Inc()
		r.noteDrop()
	}
}

// noteDrop records a push-queue overflow and emits the rate-limited
// audit event.
func (r *resumeReplicator) noteDrop() {
	now := time.Now()
	r.dropMu.Lock()
	r.drops++
	drops := r.drops
	r.lastDrop = now
	emit := now.Sub(r.lastDropAudit) >= r.dropInterval
	if emit {
		r.lastDropAudit = now
	}
	r.dropMu.Unlock()
	if emit {
		r.audit.Emit(obs.AuditEvent{
			Type:   obs.AuditResumeReplicationDropped,
			Detail: fmt.Sprintf("push queue full; %d records dropped since start", drops),
		})
	}
}

// healthCheck reports degraded while drops occurred within the health
// window — wired into /healthz as the "replication" check.
func (r *resumeReplicator) healthCheck() error {
	r.dropMu.Lock()
	defer r.dropMu.Unlock()
	if !r.lastDrop.IsZero() {
		if age := time.Since(r.lastDrop); age < r.dropWindow {
			return fmt.Errorf("resume replication dropped %d records (last %s ago)",
				r.drops, age.Round(time.Millisecond))
		}
	}
	return nil
}

// pump drains the push queue for the life of the process. The pump (not
// the attest path) pays for wrapping and for slow peers; link errors are
// counted and the record is simply not replicated — the client's
// fallback is the peer fetch, and behind that a full re-attest.
func (r *resumeReplicator) pump() {
	for rec := range r.queue {
		wrapped, err := wrapResumeRecord(r.fleetKey, rec)
		if err != nil {
			r.metrics.Counter("server.resume_replicate_errors").Inc()
			continue
		}
		for _, p := range r.activePeers() {
			if _, err := p.roundTrip(peerOpPush, wrapped, false, r.dialTimeout, r.opTimeout); err != nil {
				r.metrics.Counter("server.resume_replicate_errors").Inc()
				continue
			}
			r.metrics.Counter("server.resume_replicate_sent").Inc()
		}
	}
}

// fetch synchronously asks the peers for a binding's record (first hit
// wins), used on a resume miss for a replayed handshake — the one case
// where a fresh key would break a mid-protocol enclave.
func (r *resumeReplicator) fetch(binding [32]byte) (ResumeRecord, bool) {
	r.metrics.Counter("server.resume_fetch").Inc()
	for _, p := range r.activePeers() {
		resp, err := p.roundTrip(peerOpFetch, binding[:], true, r.dialTimeout, r.opTimeout)
		if err != nil {
			continue
		}
		rec, err := openResumeRecord(r.fleetKey, resp)
		if err != nil || subtle.ConstantTimeCompare(rec.Binding[:], binding[:]) != 1 || rec.expired(time.Now()) {
			r.metrics.Counter("server.resume_fetch_bad").Inc()
			continue
		}
		r.metrics.Counter("server.resume_fetch_hit").Inc()
		return rec, true
	}
	r.metrics.Counter("server.resume_fetch_miss").Inc()
	return ResumeRecord{}, false
}

// --- accepting side ---

// handlePeerConn serves one replication link: ack the handshake, then a
// loop of push/fetch/gossip frames until the peer hangs up. Reached from
// handleConn for a peer-link handshake; a server without a fleet key
// refuses.
func (s *Server) handlePeerConn(conn net.Conn, br *bufio.Reader) error {
	if len(s.opt.fleetKey) == 0 {
		s.armDeadline(conn)
		_ = writeErrorFrame(conn, "resume replication not enabled")
		return fmt.Errorf("elide server: replication link without a fleet key")
	}
	s.opt.metrics.Counter("server.peer_links").Inc()
	s.armPeerDeadline(conn)
	if err := writeResponse(conn, []byte{ProtoV1}); err != nil {
		return err
	}
	var scratch []byte
	for {
		s.armPeerDeadline(conn)
		frame, err := readFrameInto(br, scratch)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		scratch = frame
		if len(frame) == 0 {
			return fmt.Errorf("elide server: empty replication frame")
		}
		op, payload := frame[0], frame[1:]
		switch op {
		case peerOpPush:
			rec, err := openResumeRecord(s.opt.fleetKey, payload)
			if err != nil || rec.expired(time.Now()) {
				s.opt.metrics.Counter("server.resume_replicate_bad").Inc()
				continue
			}
			s.resume.Put(rec)
			s.opt.metrics.Counter("server.resume_replicated").Inc()
			s.opt.audit.Emit(obs.AuditEvent{
				Type:     obs.AuditResumeReplicated,
				Enclave:  fmt.Sprintf("%x", rec.MrEnclave[:4]),
				Endpoint: conn.RemoteAddr().String(),
			})
		case peerOpFetch:
			s.armPeerDeadline(conn)
			if len(payload) != 32 {
				if werr := writeErrorFrame(conn, "malformed fetch"); werr != nil {
					return werr
				}
				continue
			}
			var binding [32]byte
			copy(binding[:], payload)
			rec, ok, _ := s.resume.Get(binding)
			if !ok {
				if werr := writeErrorFrame(conn, "resume miss"); werr != nil {
					return werr
				}
				continue
			}
			wrapped, err := wrapResumeRecord(s.opt.fleetKey, rec)
			if err != nil {
				if werr := writeErrorFrame(conn, "wrap failed"); werr != nil {
					return werr
				}
				continue
			}
			s.opt.metrics.Counter("server.resume_fetch_served").Inc()
			if werr := writeResponse(conn, wrapped); werr != nil {
				return werr
			}
		case peerOpPing:
			if s.gsp == nil {
				if werr := writeErrorFrame(conn, "gossip not enabled"); werr != nil {
					return werr
				}
				continue
			}
			if err := s.gsp.mergeSealed(payload); err != nil {
				s.opt.metrics.Counter("server.gossip_bad_delta").Inc()
				if werr := writeErrorFrame(conn, "bad gossip delta"); werr != nil {
					return werr
				}
				continue
			}
			s.opt.metrics.Counter("server.gossip_pings").Inc()
			reply, err := s.gsp.sealedSummary()
			if err != nil {
				if werr := writeErrorFrame(conn, "seal failed"); werr != nil {
					return werr
				}
				continue
			}
			if werr := writeResponse(conn, reply); werr != nil {
				return werr
			}
		case peerOpPingReq:
			if s.gsp == nil {
				if werr := writeErrorFrame(conn, "gossip not enabled"); werr != nil {
					return werr
				}
				continue
			}
			// The indirect probe dials the target synchronously; the link's
			// deadline is re-armed after, so a slow target costs this one
			// frame, not the link.
			ok, err := s.gsp.servePingReq(payload)
			s.armPeerDeadline(conn)
			if err != nil {
				s.opt.metrics.Counter("server.gossip_bad_delta").Inc()
				if werr := writeErrorFrame(conn, "bad ping-req"); werr != nil {
					return werr
				}
				continue
			}
			if !ok {
				if werr := writeErrorFrame(conn, "target unreachable"); werr != nil {
					return werr
				}
				continue
			}
			if werr := writeResponse(conn, nil); werr != nil {
				return werr
			}
		case peerOpDigest:
			if s.gsp == nil {
				if werr := writeErrorFrame(conn, "gossip not enabled"); werr != nil {
					return werr
				}
				continue
			}
			reply, err := s.gsp.serveDigest(payload)
			if err != nil {
				s.opt.metrics.Counter("server.anti_entropy_bad").Inc()
				if werr := writeErrorFrame(conn, "bad digest"); werr != nil {
					return werr
				}
				continue
			}
			if werr := writeResponse(conn, reply); werr != nil {
				return werr
			}
		default:
			if werr := writeErrorFrame(conn, "unknown replication op"); werr != nil {
				return werr
			}
		}
	}
}

// armPeerDeadline sets the replication link's I/O deadline. Peer links
// are long-lived with sparse traffic, so they idle far longer than a
// client session; a dialer finding its link timed out simply redials.
func (s *Server) armPeerDeadline(conn net.Conn) {
	if s.opt.ioTimeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(4 * s.opt.ioTimeout))
	}
}
