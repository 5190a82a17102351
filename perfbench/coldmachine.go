package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sgxelide/internal/bench"
	"sgxelide/internal/elide"
	"sgxelide/internal/sdk"
)

// coldMachine is a closed loop with procs workers. Each op is a user
// machine's first start and a restart: build a fresh platform and host,
// launch a seeded program and restore it from an in-process server with
// FlagSealAfter, destroy it, relaunch it and restore it from the sealed
// file with FlagTrySealed, destroy it again. EPC allocation, enclave
// measurement and the enclave-side restore (the VM, the intrinsics, the
// wipe loops) carry the work, TCP is bypassed, and sealing (a write) and
// unsealing (a read) take the same layer both ways.
type coldMachine struct {
	machineEnv
	deps []*deployment
	srvs []*elide.Server
}

func (c *coldMachine) setup(tr *tracer) error {
	if err := c.setupEnv(tr); err != nil {
		return err
	}
	env := c.env
	var err error
	if c.deps, err = buildDeployments(tr, env, bench.All()); err != nil {
		return err
	}
	for _, d := range c.deps {
		srv, err := d.prot.NewServerFor(env.CA)
		if err != nil {
			return err
		}
		c.srvs = append(c.srvs, srv)
	}
	return nil
}

func (c *coldMachine) close() {}

func (c *coldMachine) measure(tr *tracer, sl *speedLog, seed int64, seconds float64) (*sample, error) {
	s := c.newSample()
	var (
		mu       sync.Mutex
		next     atomic.Int64
		restores = map[string]uint64{}
		sealed   = map[string]uint64{}
	)
	opWith := func(tr *tracer) func() error {
		return func() error {
			i := pick(seed, int(next.Add(1)-1), len(c.deps))
			rs, ss, err := c.op(tr, i)
			if err != nil {
				return fmt.Errorf("%s: %w", c.deps[i].prog.Name, err)
			}
			mu.Lock()
			restores[c.deps[i].prog.Name] = rs
			sealed[c.deps[i].prog.Name] = ss
			mu.Unlock()
			return nil
		}
	}
	// A machine's memory is collected when it shuts down, as its process's
	// exit would return it, so every op starts from the same heap and the
	// peak RSS does not depend on where the collector happened to run.
	s.checkWarmup(closedLoop(warmup(seconds), procs, nil, opWith(nil), runtime.GC))
	cl := closedLoop(time.Duration(seconds*float64(time.Second)), procs, sl, opWith(tr), runtime.GC)
	raw, scaled := cl.scale(sl)
	s.addBusy(raw, scaled)
	s.lat, s.attempted, s.failed, s.firstErr = cl.lat, cl.attempted, cl.failed, cl.firstErr
	s.tputOps, s.tputTime = cl.attempted-cl.failed, scaled/procs
	s.layer["evm.restore_instructions"] = meanOver(restores)
	s.layer["evm.sealed_restore_instructions"] = meanOver(sealed)
	s.report = append(s.report, fmt.Sprintf("cold_machine: %d workers, %d programs restored", procs, len(restores)))
	return s, nil
}

// op is one simulated machine. It returns the instructions of the server
// restore and of the sealed restore.
func (c *coldMachine) op(tr *tracer, i int) (uint64, uint64, error) {
	d := c.deps[i]
	op := tr.root("op.cold_machine")
	defer op.end()
	host, err := newMachine(op, c.env.CA)
	if err != nil {
		return 0, 0, err
	}
	files := d.prot.LocalFiles()
	ch := &timedChannel{inner: &elide.DirectClient{Session: c.srvs[i].NewSession()}}
	defer ch.Close()
	rs, err := launchRestore(op, ch, host, d, files, "elide.restore_ecall", elide.FlagSealAfter, elide.RestoreOKServer)
	if err != nil {
		return 0, 0, err
	}
	if len(files.Sealed) == 0 {
		return 0, 0, errors.New("FlagSealAfter wrote no sealed file")
	}
	ss, err := launchRestore(op, ch, host, d, files, "elide.sealed_restore", elide.FlagTrySealed, elide.RestoreOKSealed)
	return rs, ss, err
}

// launchRestore launches the deployment, restores it and destroys it.
func launchRestore(op spanRef, ch *timedChannel, host *sdk.Host, d *deployment, files *elide.FileStore, name string, flags, want uint64) (uint64, error) {
	sp := op.child("sgx.launch")
	encl, rt, err := d.prot.Launch(host, ch, files)
	sp.end()
	if err != nil {
		return 0, fmt.Errorf("launch: %w", err)
	}
	steps, err := restore(op, ch, encl, rt, name, flags, want)
	sp = op.child("sgx.destroy")
	encl.Destroy()
	sp.end()
	return steps, err
}

// meanOver is the mean of one exact count per program.
func meanOver(perProgram map[string]uint64) float64 {
	if len(perProgram) == 0 {
		return 0
	}
	var sum float64
	for _, n := range perProgram {
		sum += float64(n)
	}
	return sum / float64(len(perProgram))
}
