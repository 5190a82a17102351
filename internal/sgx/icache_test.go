package sgx

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"

	"sgxelide/internal/evm"
)

// codeEnclave builds an enclave whose RWX first page holds "movi r0, 1;
// eexit 0" and returns its address space and a function that runs that
// code, reporting how it stopped and the final r0.
func codeEnclave(t *testing.T, cfg Config) (*Platform, *AddressSpace, func() (evm.Stop, uint64)) {
	t.Helper()
	// Page content: movi r0, 1; eexit 0 — with RWX permissions (the
	// sanitized-text situation).
	code := Inst2Bytes(
		evm.Inst{Op: evm.MOVI, Rd: 0, U64: 1},
		evm.Inst{Op: evm.EEXIT, Imm: 0},
	)
	p, as, _, run := rwxEnclave(t, cfg, map[uint64][]byte{base: code}, base)
	return p, as, run
}

// rwxEnclave builds an enclave of RWX pages with the given contents and a
// VM on its address space, and returns a function that runs the VM from pc,
// reporting how it stopped and the final r0.
func rwxEnclave(t testing.TB, cfg Config, pages map[uint64][]byte, pc uint64) (*Platform, *AddressSpace, *evm.VM, func() (evm.Stop, uint64)) {
	t.Helper()
	_, p := testEnv(t, cfg)
	perms := map[uint64]Perm{}
	for va := range pages {
		perms[va] = PermR | PermW | PermX
	}
	e := buildEnclave(t, p, devKey(t), pages, perms)
	as := &AddressSpace{Enclave: e, Untrusted: evm.NewFlatMem(0x1000, 4096)}
	m := evm.New(as)
	m.MaxSteps = 1000
	return p, as, m, func() (evm.Stop, uint64) {
		m.PC = pc
		m.SetSP(0x1000 + 4096)
		return m.Run(), m.Reg[0]
	}
}

// TestSelfModificationInvalidatesICache is the correctness condition the
// decoded-instruction cache must honor for SgxElide to work at all: after
// enclave code overwrites an already-executed instruction, the next
// execution must see the new bytes, not a stale decode.
func TestSelfModificationInvalidatesICache(t *testing.T) {
	_, as, enter := codeEnclave(t, Config{EPCPages: 64})
	run := func() uint64 {
		stop, r0 := enter()
		if stop.Reason != evm.StopExit {
			t.Fatalf("stop = %v", stop)
		}
		return r0
	}

	if got := run(); got != 1 {
		t.Fatalf("first run: r0 = %d", got)
	}
	// The instruction is now cached. Patch the immediate (an enclave-mode
	// write to an X page) and re-run: the VM must decode the new bytes.
	patched := Inst2Bytes(evm.Inst{Op: evm.MOVI, Rd: 0, U64: 2})
	if f := as.EnclaveWriteBytes(base, patched); f != nil {
		t.Fatal(f)
	}
	if got := run(); got != 2 {
		t.Fatalf("after self-modification: r0 = %d, want 2 (stale icache?)", got)
	}
	// And once more through the byte-wise (page-spanning) write path.
	patched2 := Inst2Bytes(evm.Inst{Op: evm.MOVI, Rd: 0, U64: 3})
	for i, b := range patched2 {
		if f := as.EnclaveWriteBytes(base+uint64(i), []byte{b}); f != nil {
			t.Fatal(f)
		}
	}
	if got := run(); got != 3 {
		t.Fatalf("after byte-wise self-modification: r0 = %d, want 3", got)
	}
}

// TestEModPRInvalidatesICache: EMODPR revoking X from a page whose code the
// VM has already decoded must make the next fetch fault, not run the stale
// decode.
func TestEModPRInvalidatesICache(t *testing.T) {
	p, as, enter := codeEnclave(t, Config{EPCPages: 64, SGX2: true})
	if stop, r0 := enter(); stop.Reason != evm.StopExit || r0 != 1 {
		t.Fatalf("first run: %v, r0 = %d", stop, r0)
	}
	// Dropping only W leaves the code runnable.
	if err := p.EModPR(as.Enclave, base, PermR|PermX); err != nil {
		t.Fatal(err)
	}
	if stop, r0 := enter(); stop.Reason != evm.StopExit || r0 != 1 {
		t.Fatalf("after EMODPR to r-x: %v, r0 = %d", stop, r0)
	}
	if err := p.EModPR(as.Enclave, base, PermR); err != nil {
		t.Fatal(err)
	}
	stop, _ := enter()
	if stop.Reason != evm.StopFault || stop.Fault.Kind != evm.FaultExecPerm || stop.Fault.Addr != base {
		t.Fatalf("after EMODPR to r--: %v, want an execute fault at %#x (stale icache?)", stop, base)
	}
}

// TestStraddlerInvalidation: an instruction whose bytes continue on the
// next page runs from the cache, yet a write to its bytes on the second
// page alone, or EMODPR dropping X from that page, must show at the next
// execution.
func TestStraddlerInvalidation(t *testing.T) {
	// movi r0, 1 starts 4 bytes before the page boundary: its opcode,
	// register and the immediate's low two bytes are on the first page, the
	// other six on the second; eexit 0 follows on the second page.
	start := base + PageSize - 4
	code := Inst2Bytes(evm.Inst{Op: evm.MOVI, Rd: 0, U64: 1}, evm.Inst{Op: evm.EEXIT, Imm: 0})
	first, second := make([]byte, PageSize), make([]byte, PageSize)
	copy(first[PageSize-4:], code)
	copy(second, code[4:])
	p, as, m, enter := rwxEnclave(t, Config{EPCPages: 64, SGX2: true},
		map[uint64][]byte{base: first, base + PageSize: second}, start)
	run := func(want uint64) {
		t.Helper()
		if stop, r0 := enter(); stop.Reason != evm.StopExit || r0 != want {
			t.Fatalf("stop = %v, r0 = %#x, want eexit(0) with %#x", stop, r0, want)
		}
	}

	run(1)
	decodes := m.Decodes
	run(1)
	if m.Decodes != decodes {
		t.Fatalf("rerun decoded %d instructions, want 0: the straddler is not cached", m.Decodes-decodes)
	}
	// Byte 2 of the immediate is the second page's first byte.
	if f := as.EnclaveWriteBytes(base+PageSize, []byte{1}); f != nil {
		t.Fatal(f)
	}
	run(0x10001)
	if err := p.EModPR(as.Enclave, base+PageSize, PermR|PermW); err != nil {
		t.Fatal(err)
	}
	stop, _ := enter()
	if stop.Reason != evm.StopFault || stop.Fault.Kind != evm.FaultExecPerm || stop.Fault.Addr != base+PageSize || stop.Fault.PC != start {
		t.Fatalf("after EMODPR of the second page to rw-: %v, want an execute fault at %#x (stale icache?)", stop, base+PageSize)
	}
}

// TestDestroyedEnclaveStopsRunning: once the enclave is destroyed, its code
// is gone, cached decodes included. Both a fresh entry and a thread still
// running when Destroy happens (here inside an intrinsic) must fault on the
// unmapped page at their next instruction.
func TestDestroyedEnclaveStopsRunning(t *testing.T) {
	wantUnmapped := func(stop evm.Stop, pc uint64) {
		t.Helper()
		if stop.Reason != evm.StopFault || stop.Fault.Kind != evm.FaultBadAddress ||
			stop.Fault.Msg != "unmapped enclave page" || stop.Fault.PC != pc {
			t.Fatalf("after Destroy: %v, want a bad-address fault on the unmapped page at pc %#x", stop, pc)
		}
	}

	p, as, enter := codeEnclave(t, Config{EPCPages: 64})
	if stop, r0 := enter(); stop.Reason != evm.StopExit || r0 != 1 {
		t.Fatalf("first run: %v, r0 = %d", stop, r0)
	}
	p.Destroy(as.Enclave)
	stop, _ := enter()
	wantUnmapped(stop, base)

	// intrin 1; movi r0, 1; eexit 0, where intrinsic 1 destroys the
	// enclave once armed.
	code := Inst2Bytes(evm.Inst{Op: evm.INTRIN, Imm: 1}, evm.Inst{Op: evm.MOVI, Rd: 0, U64: 1}, evm.Inst{Op: evm.EEXIT})
	p, as, m, enter2 := rwxEnclave(t, Config{EPCPages: 64}, map[uint64][]byte{base: code}, base)
	destroy := false
	m.Intrinsics = map[uint16]evm.Intrinsic{1: func(*evm.VM) *evm.Fault {
		if destroy {
			p.Destroy(as.Enclave)
		}
		return nil
	}}
	if stop, r0 := enter2(); stop.Reason != evm.StopExit || r0 != 1 {
		t.Fatalf("first run: %v, r0 = %d", stop, r0)
	}
	destroy = true
	stop, _ = enter2()
	wantUnmapped(stop, base+3)
}

// TestCachedMatchesUncached runs random short programs on an enclave
// address space, which caches decodes, and on a FlatMem, which does not, at
// the same addresses. The programs loop over ALU ops, forward branches,
// loads and stores, some of them into their own code, which may start just
// before a page boundary. Both machines must agree on registers, memory,
// instruction counts and how they stopped.
func TestCachedMatchesUncached(t *testing.T) {
	const npages = 3
	pages := map[uint64][]byte{}
	for i := uint64(0); i < npages; i++ {
		pages[base+i*PageSize] = nil
	}
	_, as, cached, _ := rwxEnclave(t, Config{EPCPages: 64}, pages, base)
	as.Untrusted = evm.NewFlatMem(0, 0)
	flat := evm.NewFlatMem(base, npages*PageSize)
	uncached := evm.New(flat)
	cached.MaxSteps, uncached.MaxSteps = 5000, 5000

	r := rand.New(rand.NewPCG(1, 2))
	for prog := 0; prog < 300; prog++ {
		start := base + uint64(r.IntN(64))
		if r.IntN(3) != 0 { // most programs span the first page boundary
			start = base + PageSize - uint64(r.IntN(160))
		}
		code := randomLoop(r, start)
		mem := make([]byte, npages*PageSize)
		for i := range mem {
			mem[i] = byte(r.IntN(256))
		}
		copy(mem[start-base:], code)
		if f := as.EnclaveWriteBytes(base, mem); f != nil {
			t.Fatal(f)
		}
		flat.WriteBytes(base, mem)
		var regs [evm.NumRegs]uint64
		for i := range regs {
			regs[i] = r.Uint64()
		}
		regs[5], regs[6] = start, base+2*PageSize

		// Twice, so the second pass runs from whatever the first cached.
		for pass := 0; pass < 2; pass++ {
			for _, m := range []*evm.VM{cached, uncached} {
				m.Reg, m.PC = regs, start
			}
			cs, us := cached.Run(), uncached.Run()
			where := fmt.Sprintf("program %d at %#x, pass %d", prog, start, pass)
			if outcome(cs) != outcome(us) {
				t.Fatalf("%s: cached %v, uncached %v", where, cs, us)
			}
			if cached.Reg != uncached.Reg || cached.PC != uncached.PC || cached.Steps != uncached.Steps {
				t.Fatalf("%s: cached pc %#x steps %d regs %x\nuncached pc %#x steps %d regs %x",
					where, cached.PC, cached.Steps, cached.Reg, uncached.PC, uncached.Steps, uncached.Reg)
			}
			got, f := as.EnclaveReadBytes(base, npages*PageSize)
			if f != nil {
				t.Fatal(f)
			}
			want, _ := flat.ReadBytes(base, npages*PageSize)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: memory differs", where)
			}
		}
	}
	if cached.Decodes >= uncached.Decodes {
		t.Fatalf("cached machine decoded %d instructions, uncached %d: nothing was cached", cached.Decodes, uncached.Decodes)
	}
}

// outcome renders how a machine stopped. The two buses name a fault on
// memory outside the program's pages differently (an enclave fetch outside
// ELRANGE is an execute fault, and a page-crossing access faults at the
// unmapped page rather than at its start), so such faults compare by kind
// class and pc only.
func outcome(s evm.Stop) string {
	if s.Reason != evm.StopFault {
		return s.String()
	}
	k := s.Fault.Kind
	if k == evm.FaultExecPerm {
		k = evm.FaultBadAddress
	}
	return fmt.Sprintf("%v at pc %#x", k, s.Fault.PC)
}

// randomLoop returns a program at start that runs a random body three
// times and halts. r5 holds start and r6 a data page; the body writes only
// r0–r4, and its memory operands are r5- or r6-relative, so its stores
// reach its own code as well as data.
func randomLoop(r *rand.Rand, start uint64) []byte {
	reg := func() byte { return byte(r.IntN(5)) }
	alu := []evm.Opcode{evm.ADD, evm.SUB, evm.MUL, evm.AND, evm.OR, evm.XOR, evm.SHL, evm.SHRU, evm.SLT, evm.SLTU}
	alui := []evm.Opcode{evm.ADDI, evm.MULI, evm.XORI, evm.SHLI, evm.SHRUI, evm.SLTI}
	loads := []evm.Opcode{evm.LD8U, evm.LD16S, evm.LD32U, evm.LD64}
	stores := []evm.Opcode{evm.ST8, evm.ST16, evm.ST32, evm.ST64}
	branches := []evm.Opcode{evm.BEQ, evm.BNE, evm.BLT, evm.BGEU}

	body := make([]evm.Inst, 4+r.IntN(12))
	for i := range body {
		switch r.IntN(6) {
		case 0:
			body[i] = evm.Inst{Op: alu[r.IntN(len(alu))], Rd: reg(), Ra: reg(), Rb: reg()}
		case 1:
			body[i] = evm.Inst{Op: alui[r.IntN(len(alui))], Rd: reg(), Ra: reg(), Imm: int64(r.IntN(64)) - 8}
		case 2:
			body[i] = evm.Inst{Op: evm.MOVI, Rd: reg(), U64: r.Uint64()}
		case 3:
			body[i] = evm.Inst{Op: loads[r.IntN(len(loads))], Rd: reg(), Ra: 6, Imm: int64(r.IntN(PageSize - 8))}
		case 4:
			// Half of the stores patch the program itself.
			st := evm.Inst{Op: stores[r.IntN(len(stores))], Rd: reg(), Ra: 6, Imm: int64(r.IntN(PageSize - 8))}
			if r.IntN(2) == 0 {
				st.Ra, st.Imm = 5, int64(r.IntN(64))
			}
			body[i] = st
		default:
			body[i] = evm.Inst{Op: branches[r.IntN(len(branches))], Rd: reg(), Ra: reg()}
		}
	}
	// Forward branches skip to a later body instruction or to the loop's
	// tail; their offsets are set once the layout is known.
	offs := make([]int, len(body)+1)
	for i, in := range body {
		offs[i+1] = offs[i] + in.Len()
	}
	for i := range body {
		if body[i].Op.OpForm() == evm.FormRRB32 {
			to := i + 1 + r.IntN(len(body)-i)
			body[i].Imm = int64(offs[to] - offs[i+1])
		}
	}
	prologue := []evm.Inst{{Op: evm.MOVI, Rd: 7, U64: 3}, {Op: evm.MOVI, Rd: 8, U64: 0}}
	tail := evm.Inst{Op: evm.ADDI, Rd: 7, Ra: 7, Imm: -1}
	back := evm.Inst{Op: evm.BNE, Rd: 7, Ra: 8}
	back.Imm = -int64(offs[len(body)] + tail.Len() + back.Len())
	prog := append(prologue, body...)
	prog = append(prog, tail, back, evm.Inst{Op: evm.HALT})
	return Inst2Bytes(prog...)
}

// Inst2Bytes encodes instructions (test helper).
func Inst2Bytes(insts ...evm.Inst) []byte {
	var out []byte
	for _, in := range insts {
		out = in.Encode(out)
	}
	return out
}
