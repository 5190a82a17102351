package sgx

import (
	"testing"

	"sgxelide/internal/evm"
)

// codeEnclave builds an enclave whose RWX first page holds "movi r0, 1;
// eexit 0" and returns its address space and a function that runs that
// code, reporting how it stopped and the final r0.
func codeEnclave(t *testing.T, cfg Config) (*Platform, *AddressSpace, func() (evm.Stop, uint64)) {
	t.Helper()
	_, p := testEnv(t, cfg)
	key := devKey(t)

	// Page content: movi r0, 1; eexit 0 — with RWX permissions (the
	// sanitized-text situation).
	code := Inst2Bytes(
		evm.Inst{Op: evm.MOVI, Rd: 0, U64: 1},
		evm.Inst{Op: evm.EEXIT, Imm: 0},
	)
	page := make([]byte, PageSize)
	copy(page, code)
	e := buildEnclave(t, p, key, map[uint64][]byte{base: page},
		map[uint64]Perm{base: PermR | PermW | PermX})

	as := &AddressSpace{Enclave: e, Untrusted: evm.NewFlatMem(0x1000, 4096)}
	m := evm.New(as)
	m.MaxSteps = 1000
	return p, as, func() (evm.Stop, uint64) {
		m.PC = base
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

// Inst2Bytes encodes instructions (test helper).
func Inst2Bytes(insts ...evm.Inst) []byte {
	var out []byte
	for _, in := range insts {
		out = in.Encode(out)
	}
	return out
}
