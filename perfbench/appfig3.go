package main

import (
	"fmt"
	"sort"
	"time"

	"sgxelide/internal/bench"
	"sgxelide/internal/elide"
	"sgxelide/internal/sdk"
)

// appFig3 is the paper's Figure 3 as a closed loop with one client. Each
// pass runs the five programs in a seeded order as whole applications in
// remote-data mode: a protected run (launch, elide_restore, the built-in
// test suite) paired with a plain-SGX baseline run (launch, test suite).
// Every run is one op. Interpreting the secret code is most of the time;
// neither TCP nor platform construction is on the path.
type appFig3 struct {
	progs []*bench.Program
	machineEnv
	deps []*deployment
	base []*baselineImage
	srvs []*elide.Server
	// appSteps holds each program's test-suite instruction count, which
	// must repeat exactly on every run.
	appSteps map[string]uint64
}

// passSeconds is the nominal length of one pass. A run makes a fixed
// number of passes, seconds/passSeconds rounded down, whatever the speed
// of the machine, so every run has the same ops and the same tail
// percentile.
const passSeconds = 10

// figurePrograms are the Figure 3 programs: all but the games.
func figurePrograms() []*bench.Program {
	var out []*bench.Program
	for _, p := range bench.All() {
		if !p.IsGame {
			out = append(out, p)
		}
	}
	return out
}

func (a *appFig3) setup(tr *tracer) error {
	if err := a.setupEnv(tr); err != nil {
		return err
	}
	env := a.env
	var err error
	if a.deps, err = buildDeployments(tr, env, a.progs); err != nil {
		return err
	}
	for _, d := range a.deps {
		b, err := buildBaseline(tr, env, d.prog)
		if err != nil {
			return err
		}
		a.base = append(a.base, b)
		srv, err := d.prot.NewServerFor(env.CA)
		if err != nil {
			return err
		}
		a.srvs = append(a.srvs, srv)
	}
	a.appSteps = map[string]uint64{}
	return nil
}

func (a *appFig3) close() {}

func (a *appFig3) measure(tr *tracer, sl *speedLog, seed int64, seconds float64) (*sample, error) {
	passes := max(1, int(seconds/passSeconds))
	s := a.newSample()
	ops := &loopStats{}
	// timed runs one op, records it and probes the machine after it; ops
	// run seconds, so every one has probes on both sides.
	timed := func(run func(*sdk.Host, int) (appRun, error), host *sdk.Host, i int, what string) (appRun, error) {
		start := time.Now()
		r, err := run(host, i)
		if err != nil {
			err = fmt.Errorf("%s %s: %w", a.deps[i].prog.Name, what, err)
		}
		ops.record(start, time.Since(start), err)
		sl.burst()
		return r, err
	}
	protectedRun := func(host *sdk.Host, i int) (appRun, error) { return a.protectedRun(tr, host, i) }
	baselineRun := func(host *sdk.Host, i int) (appRun, error) { return a.baselineRun(tr, host, i) }
	var protPass, basePass, appPass, baseAppPass []time.Duration
	var appInstr uint64
	restoreSteps := map[string]uint64{}
	restoreMs := map[string][]time.Duration{}
	appMs := map[string][]time.Duration{}
	baseMs := map[string][]time.Duration{}
	sl.burst()
	for pass := 0; pass < passes; pass++ {
		// A fresh untrusted runtime per pass, as a new process would have.
		host := sdk.NewHost(a.env.Host.Platform)
		var prot, base, app, baseApp time.Duration
		var instr uint64
		for _, i := range order(seed, pass, len(a.deps)) {
			d := a.deps[i]
			r, err := timed(protectedRun, host, i, "protected")
			if err == nil {
				prot += r.total
				app += r.app
				instr += r.appSteps
				restoreSteps[d.prog.Name] = r.restoreSteps
				restoreMs[d.prog.Name] = append(restoreMs[d.prog.Name], r.restore)
				appMs[d.prog.Name] = append(appMs[d.prog.Name], r.app)
				if want, ok := a.appSteps[d.prog.Name]; ok && want != r.appSteps {
					s.checks = append(s.checks, fmt.Sprintf("%s: test suite ran %d instructions, earlier %d", d.prog.Name, r.appSteps, want))
				}
				a.appSteps[d.prog.Name] = r.appSteps
			}
			r, err = timed(baselineRun, host, i, "baseline")
			if err != nil {
				continue
			}
			base += r.total
			baseApp += r.app
			baseMs[d.prog.Name] = append(baseMs[d.prog.Name], r.total)
		}
		protPass = append(protPass, prot)
		basePass = append(basePass, base)
		appPass = append(appPass, app)
		baseAppPass = append(baseAppPass, baseApp)
		appInstr = instr
	}
	raw, scaled := ops.scale(sl)
	s.addBusy(raw, scaled)
	s.lat, s.attempted, s.failed, s.firstErr = ops.lat, ops.attempted, ops.failed, ops.firstErr
	s.tputOps, s.tputTime = ops.attempted-ops.failed, scaled

	appP50 := medianDur(appPass)
	s.layer["evm.app_ms"] = float64(appP50) / 1e6
	s.layer["evm.baseline_app_ms"] = float64(medianDur(baseAppPass)) / 1e6
	s.layer["evm.app_instructions"] = float64(appInstr)
	if appInstr > 0 {
		s.layer["evm.ns_per_instruction"] = float64(appP50) / float64(appInstr)
	}
	if b := medianDur(basePass); b > 0 {
		s.layer["elide_overhead"] = float64(medianDur(protPass)) / float64(b)
	}
	s.layer["evm.restore_instructions"] = meanOver(restoreSteps)
	s.report = append(s.report, fmt.Sprintf("app_fig3: %d passes; elide_overhead %.4f (median protected pass / median baseline pass)", passes, s.layer["elide_overhead"]))
	s.report = append(s.report, fmt.Sprintf("%-8s %12s %12s %12s %14s %10s", "program", "restore_ms", "app_ms", "baseline_ms", "restore/app", "overhead"))
	var names []string
	for n := range appMs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r, ap := float64(medianDur(restoreMs[n]))/1e6, float64(medianDur(appMs[n]))/1e6
		b := float64(medianDur(baseMs[n])) / 1e6
		s.report = append(s.report, fmt.Sprintf("%-8s %12.2f %12.2f %12.2f %13.2f%% %10.4f", n, r, ap, b, 100*r/ap, (r+ap)/b))
	}
	return s, nil
}

// appRun is one application run: its total time, the restore ecall and the
// test suite within it, and their instruction counts.
type appRun struct {
	total, restore, app    time.Duration
	restoreSteps, appSteps uint64
}

func (a *appFig3) protectedRun(tr *tracer, host *sdk.Host, i int) (r appRun, err error) {
	d := a.deps[i]
	op := tr.root("op.app_protected")
	defer op.end()
	start := time.Now()
	ch := &timedChannel{inner: &elide.DirectClient{Session: a.srvs[i].NewSession()}}
	defer ch.Close()
	sp := op.child("sgx.launch")
	encl, rt, err := d.prot.Launch(host, ch, d.prot.LocalFiles())
	sp.end()
	if err != nil {
		return r, fmt.Errorf("launch: %w", err)
	}
	defer func() {
		sp := op.child("sgx.destroy")
		encl.Destroy()
		sp.end()
		r.total = time.Since(start)
	}()
	rs := time.Now()
	r.restoreSteps, err = restore(op, ch, encl, rt, "elide.restore_ecall", 0, elide.RestoreOKServer)
	r.restore = time.Since(rs)
	if err != nil {
		return r, err
	}
	r.app, r.appSteps, err = runApp(op, "evm.app", host, encl, d.prog)
	return r, err
}

func (a *appFig3) baselineRun(tr *tracer, host *sdk.Host, i int) (r appRun, err error) {
	img := a.base[i]
	op := tr.root("op.app_baseline")
	defer op.end()
	start := time.Now()
	sp := op.child("sgx.baseline_launch")
	encl, err := host.CreateEnclave(img.elf, img.ss, img.iface)
	sp.end()
	if err != nil {
		return r, fmt.Errorf("launch: %w", err)
	}
	defer func() {
		sp := op.child("sgx.destroy")
		encl.Destroy()
		sp.end()
		r.total = time.Since(start)
	}()
	r.app, r.appSteps, err = runApp(op, "evm.baseline_app", host, encl, a.deps[i].prog)
	return r, err
}

// runApp runs the program's built-in test suite, which checks every result.
func runApp(op spanRef, name string, host *sdk.Host, encl *sdk.Enclave, p *bench.Program) (time.Duration, uint64, error) {
	steps := encl.Steps
	sp := op.child(name)
	start := time.Now()
	err := p.Workload(host, encl)
	d := time.Since(start)
	sp.end()
	return d, encl.Steps - steps, err
}
