package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"sgxelide/internal/bench"
	"sgxelide/internal/elide"
	"sgxelide/internal/obs"
	"sgxelide/internal/sdk"
	"sgxelide/internal/sgx"
)

// restoreTCP serves all seven programs from one multi-enclave server over
// loopback TCP. Each op is one simulated user machine: a fresh ECDH
// keypair, a fresh quote, its own single-flight (ProtoV1) client, then
// attest, REQUEST_META and REQUEST_DATA for a seeded program. The first
// half of a run is an open loop at a fixed rate, timed from each arrival's
// due time; the second half is a closed loop with procs workers, which
// measures capacity. The attestation crypto, the handshake codec, the
// server's request loop and the metrics path carry the work; no enclave
// code runs.
type restoreTCP struct {
	machineEnv
	deps    []*deployment
	quoters []*sdk.Enclave // one launched enclave per program, for EREPORT
	srv     *elide.Server
	sreg    *obs.Registry
	creg    *obs.Registry

	addr   string
	cancel context.CancelFunc
	served chan error
}

// openLoopRate is the fixed open-loop arrival rate: about 20% of the
// closed-loop capacity on one CPU of the reference machine (about 1,000
// restores/s), so the phase measures latency below saturation even when
// the host runs the machine at two thirds of its speed.
const openLoopRate = 200

func (r *restoreTCP) setup(tr *tracer) error {
	if err := r.setupEnv(tr); err != nil {
		return err
	}
	env := r.env
	var err error
	if r.deps, err = buildDeployments(tr, env, bench.All()); err != nil {
		return err
	}
	store := elide.NewSecretStore()
	for _, d := range r.deps {
		if _, err := store.Register(d.prot.Measurement, d.prot.Meta, d.prot.SecretData, d.prog.Name); err != nil {
			return err
		}
		sp := tr.root("sgx.launch")
		encl, _, err := d.prot.Launch(env.Host, nil, nil)
		sp.end()
		if err != nil {
			return fmt.Errorf("%s: launch: %w", d.prog.Name, err)
		}
		r.quoters = append(r.quoters, encl)
	}
	r.sreg, r.creg = obs.NewRegistry(), obs.NewRegistry()
	r.srv, err = elide.NewMultiServer(env.CA.PublicKey(), store, elide.WithServerMetrics(r.sreg))
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.addr = l.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel, r.served = cancel, make(chan error, 1)
	go func() { r.served <- r.srv.Serve(ctx, l) }()
	return nil
}

func (r *restoreTCP) close() {
	if r.cancel != nil {
		r.cancel()
		<-r.served
	}
}

func (r *restoreTCP) measure(tr *tracer, sl *speedLog, seed int64, seconds float64) (*sample, error) {
	s := r.newSample()
	half := time.Duration(seconds / 2 * float64(time.Second))
	var next atomic.Int64 // input index, shared by both phases
	opWith := func(tr *tracer) func() error {
		return func() error { return r.op(tr, pick(seed, int(next.Add(1)-1), len(r.deps))) }
	}
	s.checkWarmup(closedLoop(warmup(seconds), procs, nil, opWith(nil), nil))
	op := opWith(tr)
	c0, s0 := r.creg.Snapshot().Counters, r.sreg.Snapshot().Counters
	ol := openLoop(openLoopRate, int(openLoopRate*half.Seconds()), procs, sl, op)
	cl := closedLoop(half, procs, sl, op, nil)
	s.addBusy(ol.scale(sl))
	raw, scaled := cl.scale(sl)
	s.addBusy(raw, scaled)
	s.lat = ol.lat
	s.attempted = ol.attempted + cl.attempted
	s.failed = ol.failed + cl.failed
	s.firstErr = ol.firstErr
	if s.firstErr == nil {
		s.firstErr = cl.firstErr
	}
	s.tputOps, s.tputTime = cl.attempted-cl.failed, scaled/procs

	c1, s1 := r.creg.Snapshot().Counters, r.sreg.Snapshot().Counters
	delta := func(a, b map[string]uint64, k string) float64 { return float64(b[k] - a[k]) }
	done := float64(max(s.attempted-s.failed, 1)) // a run where all failed still prints its result
	flights := delta(c0, c1, "client.flights")
	s.layer["elide.flights_per_restore"] = flights / done
	s.layer["elide.dials_per_restore"] = delta(c0, c1, "client.dials") / done
	s.layer["elide.bundle_hit_ratio"] = delta(c0, c1, "client.bundle_hits") / (2 * float64(s.attempted))
	s.layer["server.sessions_per_restore"] = delta(s0, s1, "server.sessions") / done
	s.layer["server.overload_sheds"] = delta(s0, s1, "server.overload.rate_limited") + delta(s0, s1, "server.overload.inflight")
	s.layer["loadgen.late_p99_ms"] = ol.lateP99
	s.layer["loadgen.inflight_max"] = float64(ol.inflightMax)
	if s.failed == 0 && flights != done {
		s.checks = append(s.checks, fmt.Sprintf("elide.flights_per_restore is %.4f, want exactly 1.00", flights/done))
	}
	s.report = append(s.report,
		fmt.Sprintf("restore_tcp open loop: %d arrivals at %d/s, %d failed, late p99 %.3f ms, in flight max %d",
			ol.attempted, openLoopRate, ol.failed, ol.lateP99, ol.inflightMax),
		fmt.Sprintf("restore_tcp closed loop: %d workers, %d restores in %.2f s, %d failed",
			procs, cl.attempted, cl.wall.Seconds(), cl.failed))
	return s, nil
}

// op is one simulated user machine restoring program i over TCP. It checks
// the metadata and data against what the deployment holds.
func (r *restoreTCP) op(tr *tracer, i int) error {
	d := r.deps[i]
	op := tr.root("op.restore_tcp")
	defer op.end()
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()

	sp := op.child("sdk.ecdh_keygen")
	priv, pub, err := sdk.GenerateECDHKeypair()
	sp.end()
	if err != nil {
		return err
	}
	sp = op.child("sgx.quote_mint")
	quote, err := r.mintQuote(i, pub)
	sp.end()
	if err != nil {
		return fmt.Errorf("quote: %w", err)
	}
	client := elide.NewTCPClient(r.addr,
		elide.WithProtocolVersion(elide.ProtoV1),
		elide.WithClientMetrics(r.creg),
		elide.WithRetryBudget(0), // a failed arrival is a failed op, not a retry
	)
	defer client.Close()
	sp = op.child("elide.attest_flight")
	spub, err := client.Attest(ctx, quote, pub)
	sp.end()
	if err != nil {
		return fmt.Errorf("attest: %w", err)
	}
	sp = op.child("sdk.derive_key")
	key, err := sdk.DeriveChannelKey(priv, spub)
	sp.end()
	if err != nil {
		return err
	}
	meta, err := request(ctx, op, client, key, elide.RequestMeta)
	if err != nil {
		return fmt.Errorf("request_meta: %w", err)
	}
	if !bytes.Equal(meta, d.meta) {
		return errors.New("request_meta: metadata differs from the deployment's")
	}
	data, err := request(ctx, op, client, key, elide.RequestData)
	if err != nil {
		return fmt.Errorf("request_data: %w", err)
	}
	if !bytes.Equal(data, d.prot.SecretData) {
		return errors.New("request_data: data differs from the deployment's")
	}
	return nil
}

// mintQuote produces a fresh quote for program i whose report data binds
// the client's ECDH public key.
func (r *restoreTCP) mintQuote(i int, pub []byte) (*sgx.Quote, error) {
	var rdata [sgx.ReportDataSize]byte
	binding := sha256.Sum256(pub)
	copy(rdata[:], binding[:])
	p := r.env.Host.Platform
	report, err := p.EReport(r.quoters[i].Encl, sgx.QETargetInfo(), rdata)
	if err != nil {
		return nil, err
	}
	return p.QuoteReport(report)
}

// request makes one encrypted channel request.
func request(ctx context.Context, op spanRef, client *elide.TCPClient, key []byte, req byte) ([]byte, error) {
	sp := op.child("elide.channel_crypto")
	enc, err := elide.ChannelSeal(key, []byte{req})
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = op.child("elide.request")
	resp, err := client.Request(ctx, enc)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = op.child("elide.channel_crypto")
	out, err := elide.ChannelOpen(key, resp)
	sp.end()
	return out, err
}
