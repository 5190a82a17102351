package elide

import (
	"bufio"
	"context"
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"sgxelide/internal/obs"
)

// Replicated session resumption (DESIGN §14): each fleet member pushes
// its freshly established channels to the other members, and on a resume
// miss for a *replayed* handshake it synchronously asks them, so a client
// failing over mid-protocol lands on a replica that already holds (or can
// fetch) its channel — zero extra attestation flights instead of a full
// re-attest.
//
// The peer link rides the existing framed transport: the dialing server
// opens it with a peer-link handshake (handshake.go). A fleet member acks
// with its protocol version and then serves replication frames; a server
// outside any fleet refuses, which the dialer treats as a link error like
// a dead peer:
//
//	push:  op(1)=peerOpPush  || wrapped record      (no reply)
//	fetch: op(1)=peerOpFetch || binding(32)         (reply: wrapped record, or a refusal on miss)
//
// plus the gossip/anti-entropy opcodes (peerOpPing, peerOpPingReq,
// peerOpDigest — see membership.go).
//
// Records cross the wire ONLY as wrapResumeRecord blobs — AES-GCM under
// the shared fleet sealing key — so the transport carries no cleartext
// channel keys, forged frames fail authentication, and replay is bounded
// by the in-record expiry.
//
// Pushes and fetches go to every member the gossip layer (membership.go)
// has not declared dead, so they track the live fleet; the configured
// addresses are only seeds.

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
func (p *resumePeer) ensureLocked() error {
	if p.conn != nil {
		return nil
	}
	conn, err := p.dial(p.addr, DefaultDialTimeout)
	if err != nil {
		return err
	}
	_ = conn.SetDeadline(time.Now().Add(DefaultPeerOpTimeout))
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
// (a fetch miss, say), not a link failure, and does not burn the
// connection.
func (p *resumePeer) roundTrip(op byte, payload []byte, want bool) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var last error
	for attempt := 0; attempt < 2; attempt++ {
		if err := p.ensureLocked(); err != nil {
			return nil, err
		}
		_ = p.conn.SetDeadline(time.Now().Add(DefaultPeerOpTimeout))
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

// fleet is a server's membership in its fleet (DESIGN §14–15): the SWIM
// state machine, one lazily dialed link per member, an async push pump
// broadcasting fresh channels to every member not declared dead, a
// synchronous peer fetch for resume misses, and the gossip loop
// (membership.go) that probes members and runs anti-entropy.
type fleet struct {
	m        *membership
	resume   *lruResumeStore
	fleetKey []byte
	metrics  *obs.Registry
	audit    *obs.AuditLog
	dial     peerDialFunc

	interval       time.Duration
	suspectTimeout time.Duration
	round          uint64 // rounds completed; gates the periodic dead re-probe

	mu    sync.Mutex
	links map[string]*resumePeer

	queue chan ResumeRecord

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

func newFleet(o *serverOptions, resume *lruResumeStore) *fleet {
	f := &fleet{
		m:              newMembership(o.self, o.seeds, o.metrics, o.audit),
		resume:         resume,
		fleetKey:       o.fleetKey,
		metrics:        o.metrics,
		audit:          o.audit,
		dial:           o.peerDial,
		interval:       o.gossipInterval,
		suspectTimeout: o.suspectTimeout,
		links:          make(map[string]*resumePeer),
		queue:          make(chan ResumeRecord, peerPushQueue),
		dropInterval:   dropAuditInterval,
		dropWindow:     dropHealthWindow,
	}
	if f.dial == nil {
		f.dial = defaultPeerDial
	}
	if f.interval <= 0 {
		f.interval = DefaultGossipInterval
	}
	if f.suspectTimeout <= 0 {
		f.suspectTimeout = DefaultSuspectTimeout
	}
	// A declared death tears the member's link down; the entry stays for
	// the dead-member re-probe to redial.
	f.m.onDead = func(addr string) { f.link(addr).close() }
	return f
}

// link returns the link to addr, creating it on first use.
func (f *fleet) link(addr string) *resumePeer {
	f.mu.Lock()
	defer f.mu.Unlock()
	p, ok := f.links[addr]
	if !ok {
		p = &resumePeer{addr: addr, dial: f.dial}
		f.links[addr] = p
	}
	return p
}

// targets returns the links to every member the mesh has not declared
// dead: the push and fetch set.
func (f *fleet) targets() []*resumePeer {
	addrs := f.m.live()
	out := make([]*resumePeer, len(addrs))
	for i, a := range addrs {
		out[i] = f.link(a)
	}
	return out
}

// start runs the push pump and the gossip loop (membership.go) until the
// returned stop, which waits for both and then closes every link.
func (f *fleet) start(ctx context.Context) (stop func()) {
	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		f.pump(ctx)
	}()
	go func() {
		defer wg.Done()
		f.gossip(ctx)
	}()
	return func() {
		cancel()
		wg.Wait()
		f.mu.Lock()
		defer f.mu.Unlock()
		for _, p := range f.links {
			p.close()
		}
	}
}

// broadcast enqueues one record for async push to every member. The
// attest path must never block on a slow peer, so a full queue drops
// (counted, audited at most once per interval, surfaced via
// ReplicationHealth).
func (f *fleet) broadcast(rec ResumeRecord) {
	select {
	case f.queue <- rec:
	default:
		f.metrics.Counter("server.resume_replicate_dropped").Inc()
		f.noteDrop()
	}
}

// noteDrop records a push-queue overflow and emits the rate-limited
// audit event.
func (f *fleet) noteDrop() {
	now := time.Now()
	f.dropMu.Lock()
	f.drops++
	drops := f.drops
	f.lastDrop = now
	emit := now.Sub(f.lastDropAudit) >= f.dropInterval
	if emit {
		f.lastDropAudit = now
	}
	f.dropMu.Unlock()
	if emit {
		f.audit.Emit(obs.AuditEvent{
			Type:   obs.AuditResumeReplicationDropped,
			Detail: fmt.Sprintf("push queue full; %d records dropped since start", drops),
		})
	}
}

// healthCheck reports degraded while drops occurred within the health
// window — wired into /healthz as the "replication" check.
func (f *fleet) healthCheck() error {
	f.dropMu.Lock()
	defer f.dropMu.Unlock()
	if !f.lastDrop.IsZero() {
		if age := time.Since(f.lastDrop); age < f.dropWindow {
			return fmt.Errorf("resume replication dropped %d records (last %s ago)",
				f.drops, age.Round(time.Millisecond))
		}
	}
	return nil
}

// pump drains the push queue until ctx ends. The pump (not the attest
// path) pays for wrapping and for slow peers; link errors are counted and
// the record is simply not replicated — the client's fallback is the
// peer fetch, and behind that a full re-attest.
func (f *fleet) pump(ctx context.Context) {
	for {
		var rec ResumeRecord
		select {
		case <-ctx.Done():
			return
		case rec = <-f.queue:
		}
		wrapped, err := wrapResumeRecord(f.fleetKey, rec)
		if err != nil {
			f.metrics.Counter("server.resume_replicate_errors").Inc()
			continue
		}
		for _, p := range f.targets() {
			if _, err := p.roundTrip(peerOpPush, wrapped, false); err != nil {
				f.metrics.Counter("server.resume_replicate_errors").Inc()
				continue
			}
			f.metrics.Counter("server.resume_replicate_sent").Inc()
		}
	}
}

// fetch synchronously asks the members for a binding's record (first hit
// wins), used on a resume miss for a replayed handshake — the one case
// where a fresh key would break a mid-protocol enclave.
func (f *fleet) fetch(binding [32]byte) (ResumeRecord, bool) {
	f.metrics.Counter("server.resume_fetch").Inc()
	for _, p := range f.targets() {
		resp, err := p.roundTrip(peerOpFetch, binding[:], true)
		if err != nil {
			continue
		}
		rec, err := openResumeRecord(f.fleetKey, resp)
		if err != nil || subtle.ConstantTimeCompare(rec.Binding[:], binding[:]) != 1 || rec.expired(time.Now()) {
			f.metrics.Counter("server.resume_fetch_bad").Inc()
			continue
		}
		f.metrics.Counter("server.resume_fetch_hit").Inc()
		return rec, true
	}
	f.metrics.Counter("server.resume_fetch_miss").Inc()
	return ResumeRecord{}, false
}

// --- accepting side ---

// handlePeerConn serves one replication link: ack the handshake, then a
// loop of push/fetch/gossip frames until the peer hangs up. Reached from
// handleConn for a peer-link handshake; a server outside any fleet
// refuses.
func (s *Server) handlePeerConn(conn net.Conn, br *bufio.Reader) error {
	f := s.fleet
	if f == nil {
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
			rec, err := openResumeRecord(f.fleetKey, payload)
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
			wrapped, err := wrapResumeRecord(f.fleetKey, rec)
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
			if err := f.mergeSealed(payload); err != nil {
				s.opt.metrics.Counter("server.gossip_bad_delta").Inc()
				if werr := writeErrorFrame(conn, "bad gossip delta"); werr != nil {
					return werr
				}
				continue
			}
			s.opt.metrics.Counter("server.gossip_pings").Inc()
			reply, err := f.sealedSummary()
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
			// The indirect probe dials the target synchronously; the link's
			// deadline is re-armed after, so a slow target costs this one
			// frame, not the link.
			ok, err := f.servePingReq(payload)
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
			reply, err := f.serveDigest(payload)
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
