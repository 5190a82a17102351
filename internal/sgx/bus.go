package sgx

import (
	"encoding/binary"

	"sgxelide/internal/evm"
)

// AddressSpace is the memory bus an EVM thread sees while executing inside
// an enclave: the enclave linear range (ELRANGE) backed by EPCM-checked EPC
// pages, plus ordinary untrusted application memory, which enclave code may
// read and write (as on real SGX) but never execute.
type AddressSpace struct {
	Enclave   *Enclave
	Untrusted *evm.FlatMem

	// PageTrace, when non-nil, receives the page-granular access sequence
	// of enclave execution — the controlled-channel observation a malicious
	// OS makes through page-fault manipulation (Xu et al., Oakland'15).
	// Page contents are never exposed, only (page number, access kind),
	// exactly the attacker's view the paper's §7 discusses.
	PageTrace func(page uint64, kind evm.Access)
}

var _ evm.Bus = (*AddressSpace)(nil)
var _ evm.CodeVersioner = (*AddressSpace)(nil)

// CodeVersion implements evm.CodeVersioner: the VM may cache decoded
// instructions of a page until that page's executable bytes change.
// Unmapped pages report the enclave-wide epoch (EMODPR bumps it), which
// also covers permission restrictions on mapped pages because the epoch is
// folded into every page's reported version.
func (a *AddressSpace) CodeVersion(addr uint64) uint64 {
	pg := a.Enclave.page(addr)
	if pg == nil {
		return a.Enclave.codeVersion
	}
	return pg.writeGen + a.Enclave.codeVersion<<32
}

// inELRange reports whether addr falls inside the enclave linear range.
func (a *AddressSpace) inELRange(addr uint64) bool {
	e := a.Enclave
	return addr >= e.Base && addr < e.Base+e.Size
}

// access performs an enclave memory access with EPCM permission checks.
// The fast path handles accesses within a single page; accesses may legally
// span page boundaries (as the restorer's copy loop does), handled by the
// byte-wise slow path.
func (a *AddressSpace) access(addr uint64, buf []byte, kind evm.Access, write bool) *evm.Fault {
	var need Perm
	switch kind {
	case evm.Read:
		need = PermR
	case evm.Write:
		need = PermW
	default:
		need = PermX
	}
	base := addr &^ uint64(PageSize-1)
	if a.PageTrace != nil {
		for p := base; p <= (addr+uint64(len(buf))-1)&^uint64(PageSize-1); p += PageSize {
			a.PageTrace(p/PageSize, kind)
		}
	}
	if (addr+uint64(len(buf))-1)&^uint64(PageSize-1) == base {
		pg := a.Enclave.page(base)
		if pg == nil {
			return &evm.Fault{Kind: evm.FaultBadAddress, Addr: addr, Msg: "unmapped enclave page"}
		}
		if pg.perm&need == 0 {
			return &evm.Fault{
				Kind: permFaultKind(kind), Addr: addr,
				Msg: "EPCM permissions " + pg.perm.String(),
			}
		}
		off := addr & (PageSize - 1)
		if write {
			if pg.perm&PermX != 0 {
				pg.writeGen++
			}
			copy(pg.data[off:], buf)
		} else {
			copy(buf, pg.data[off:])
		}
		return nil
	}
	for i := range buf {
		va := addr + uint64(i)
		pg := a.Enclave.page(va)
		if pg == nil {
			return &evm.Fault{Kind: evm.FaultBadAddress, Addr: va, Msg: "unmapped enclave page"}
		}
		if pg.perm&need == 0 {
			return &evm.Fault{
				Kind: permFaultKind(kind), Addr: va,
				Msg: "EPCM permissions " + pg.perm.String(),
			}
		}
		off := va & (PageSize - 1)
		if write {
			if pg.perm&PermX != 0 {
				pg.writeGen++
			}
			pg.data[off] = buf[i]
		} else {
			buf[i] = pg.data[off]
		}
	}
	return nil
}

func permFaultKind(kind evm.Access) evm.FaultKind {
	switch kind {
	case evm.Read:
		return evm.FaultReadPerm
	case evm.Write:
		return evm.FaultWritePerm
	default:
		return evm.FaultExecPerm
	}
}

// Fetch implements evm.Bus. Instruction fetches must come from executable
// enclave pages; enclave threads cannot execute untrusted memory.
func (a *AddressSpace) Fetch(addr uint64, dst []byte) *evm.Fault {
	if !a.inELRange(addr) {
		return &evm.Fault{Kind: evm.FaultExecPerm, Addr: addr, Msg: "fetch outside ELRANGE"}
	}
	return a.access(addr, dst, evm.Exec, false)
}

// Load implements evm.Bus.
func (a *AddressSpace) Load(addr uint64, n int) (uint64, *evm.Fault) {
	if a.inELRange(addr) {
		var buf [8]byte
		if f := a.access(addr, buf[:n], evm.Read, false); f != nil {
			return 0, f
		}
		return leLoad(buf[:n]), nil
	}
	return a.Untrusted.Load(addr, n)
}

// Store implements evm.Bus.
func (a *AddressSpace) Store(addr uint64, n int, v uint64) *evm.Fault {
	if a.inELRange(addr) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		return a.access(addr, buf[:n], evm.Write, true)
	}
	return a.Untrusted.Store(addr, n, v)
}

func leLoad(b []byte) uint64 {
	var buf [8]byte
	copy(buf[:], b)
	return binary.LittleEndian.Uint64(buf[:])
}

// EnclaveReadBytes copies out enclave memory on behalf of *enclave* code
// (intrinsics modeling statically linked library routines). Requires R.
func (a *AddressSpace) EnclaveReadBytes(addr uint64, n int) ([]byte, *evm.Fault) {
	out := make([]byte, n)
	if a.inELRange(addr) {
		if f := a.access(addr, out, evm.Read, false); f != nil {
			return nil, f
		}
		return out, nil
	}
	for i := 0; i < n; i++ {
		v, f := a.Untrusted.Load(addr+uint64(i), 1)
		if f != nil {
			return nil, f
		}
		out[i] = byte(v)
	}
	return out, nil
}

// EnclaveWriteBytes writes enclave (or untrusted) memory on behalf of
// enclave code. Requires W on enclave pages.
func (a *AddressSpace) EnclaveWriteBytes(addr uint64, data []byte) *evm.Fault {
	if a.inELRange(addr) {
		return a.access(addr, data, evm.Write, true)
	}
	for i, b := range data {
		if f := a.Untrusted.Store(addr+uint64(i), 1, uint64(b)); f != nil {
			return f
		}
	}
	return nil
}
