package main

import (
	"context"
	"fmt"
	"runtime"

	"sgxelide/internal/bench"
	"sgxelide/internal/edl"
	"sgxelide/internal/elide"
	"sgxelide/internal/sdk"
	"sgxelide/internal/sgx"
)

// newMachine builds one simulated SGX machine under a platform_new span.
func newMachine(parent spanRef, ca *sgx.CA) (*sdk.Host, error) {
	p, err := newPlatform(parent, ca)
	if err != nil {
		return nil, err
	}
	sp := parent.child("sdk.host_new")
	h := sdk.NewHost(p)
	sp.end()
	return h, nil
}

func newPlatform(parent spanRef, ca *sgx.CA) (*sgx.Platform, error) {
	sp := parent.child("sgx.platform_new")
	p, err := sgx.NewPlatform(sgx.Config{}, ca)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("new platform: %w", err)
	}
	return p, nil
}

// machineEnv is the set-up machine every workload builds on, and the heap
// its platform took, in MiB, measured while nothing else runs.
type machineEnv struct {
	env     *bench.Env
	heapMiB float64
}

// setupEnv is bench.NewEnv with the platform construction timed on its own.
func (m *machineEnv) setupEnv(tr *tracer) error {
	sp := tr.root("setup.env")
	defer sp.end()
	ca, err := sgx.NewCA()
	if err != nil {
		return fmt.Errorf("new CA: %w", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := newPlatform(sp, ca)
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	m.heapMiB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	hs := sp.child("sdk.host_new")
	m.env = &bench.Env{CA: ca, Host: sdk.NewHost(p)}
	hs.end()
	return nil
}

func (m *machineEnv) newSample() *sample {
	return &sample{layer: map[string]float64{"sgx.platform_heap_mb": m.heapMiB}}
}

// deployment is one protected program: what the developer ships and what
// the authentication server holds.
type deployment struct {
	prog *bench.Program
	prot *elide.Protected
	meta []byte // prot.Meta.Marshal(): what REQUEST_META must return
}

// buildDeployment runs the developer-side pipeline of elide.BuildProtected
// (remote-data mode, the shared bench signing key and whitelist) call by
// call, so the toolchain and the sanitizer are timed apart.
func buildDeployment(tr *tracer, env *bench.Env, p *bench.Program) (*deployment, error) {
	root := tr.root("setup.deployment")
	defer root.end()
	sp := root.child("bench.fixtures")
	key, wl, err := bench.Fixtures()
	sp.end()
	if err != nil {
		return nil, err
	}
	iface, err := elide.MergeEDL(p.EDL)
	if err != nil {
		return nil, fmt.Errorf("%s: merge EDL: %w", p.Name, err)
	}
	sp = root.child("toolchain.build")
	res, err := sdk.BuildEnclave(sdk.BuildConfig{}, iface, append(elide.TrustedSources(), sdk.C(p.Name+".c", p.TrustedC))...)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", p.Name, err)
	}
	sp = root.child("elide.sanitize")
	san, err := elide.Sanitize(res.ELF, wl, elide.SanitizeOptions{})
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("%s: sanitize: %w", p.Name, err)
	}
	sp = root.child("sgx.measure")
	mr, err := sdk.MeasureELF(env.Host, san.SanitizedELF)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("%s: measure: %w", p.Name, err)
	}
	sp = root.child("sgx.sign")
	ss, err := sgx.SignEnclave(key, mr, 0, 0)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("%s: sign: %w", p.Name, err)
	}
	prot := &elide.Protected{
		PlainELF:     res.ELF,
		SanitizedELF: san.SanitizedELF,
		SigStruct:    ss,
		Measurement:  mr,
		Meta:         san.Meta,
		SecretData:   san.SecretData,
		SecretPlain:  san.SecretPlain,
		Stats:        san.Stats,
		EDL:          iface,
	}
	return &deployment{prog: p, prot: prot, meta: prot.Meta.Marshal()}, nil
}

func buildDeployments(tr *tracer, env *bench.Env, progs []*bench.Program) ([]*deployment, error) {
	deps := make([]*deployment, len(progs))
	for i, p := range progs {
		d, err := buildDeployment(tr, env, p)
		if err != nil {
			return nil, err
		}
		deps[i] = d
	}
	return deps, nil
}

// baselineImage is the program built as a plain SGX enclave, without
// SgxElide: the "w/ SGX" bar of Figure 3.
type baselineImage struct {
	elf   []byte
	ss    *sgx.SigStruct
	iface *edl.Interface
}

func buildBaseline(tr *tracer, env *bench.Env, p *bench.Program) (*baselineImage, error) {
	root := tr.root("setup.baseline")
	defer root.end()
	key, _, err := bench.Fixtures()
	if err != nil {
		return nil, err
	}
	iface, err := edl.Parse(p.EDL)
	if err != nil {
		return nil, fmt.Errorf("%s: parse EDL: %w", p.Name, err)
	}
	sp := root.child("toolchain.build_baseline")
	res, err := sdk.BuildEnclave(sdk.BuildConfig{}, iface, sdk.C(p.Name+".c", p.TrustedC))
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("%s: build baseline: %w", p.Name, err)
	}
	mr, err := sdk.MeasureELF(env.Host, res.ELF)
	if err != nil {
		return nil, err
	}
	ss, err := sgx.SignEnclave(key, mr, 1, 1)
	if err != nil {
		return nil, err
	}
	return &baselineImage{elf: res.ELF, ss: ss, iface: iface}, nil
}

// timedChannel wraps the SecretChannel the runtime restores through, so
// the time a restore ecall spends waiting on the server shows as child
// spans of the ecall span (its parent, set before each ecall).
type timedChannel struct {
	inner  elide.SecretChannel
	parent spanRef
}

func (c *timedChannel) Attest(ctx context.Context, q *sgx.Quote, pub []byte) ([]byte, error) {
	sp := c.parent.child("elide.channel_attest")
	defer sp.end()
	return c.inner.Attest(ctx, q, pub)
}

func (c *timedChannel) Request(ctx context.Context, enc []byte) ([]byte, error) {
	sp := c.parent.child("elide.channel_request")
	defer sp.end()
	return c.inner.Request(ctx, enc)
}

func (c *timedChannel) Close() error { return c.inner.Close() }

// restore runs the elide_restore ecall under a span named name and checks
// its return code. It returns the instructions the ecall executed.
func restore(parent spanRef, ch *timedChannel, encl *sdk.Enclave, rt *elide.Runtime, name string, flags, want uint64) (uint64, error) {
	sp := parent.child(name)
	ch.parent = sp
	steps := encl.Steps
	code, err := encl.ECall("elide_restore", flags)
	sp.end()
	if err != nil {
		return 0, fmt.Errorf("%s: %w (runtime: %v)", name, err, rt.LastErr())
	}
	if code != want {
		return 0, fmt.Errorf("%s: code %d, want %d (runtime: %v)", name, code, want, rt.LastErr())
	}
	return encl.Steps - steps, nil
}
