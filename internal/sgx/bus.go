package sgx

import "sgxelide/internal/evm"

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
var _ evm.CodePages = (*AddressSpace)(nil)

// CodePage implements evm.CodePages: the word is the page's EPCM writeGen,
// and the index its ELRANGE page number. While PageTrace is set it hands
// out no word, so every fetch goes through Fetch and the trace sees it.
func (a *AddressSpace) CodePage(addr uint64) (*uint64, uint64) {
	pg := a.Enclave.page(addr)
	if pg == nil || a.PageTrace != nil {
		return nil, 0
	}
	return &pg.writeGen, (addr - a.Enclave.Base) / PageSize
}

// inELRange reports whether addr falls inside the enclave linear range.
func (a *AddressSpace) inELRange(addr uint64) bool {
	e := a.Enclave
	return addr >= e.Base && addr < e.Base+e.Size
}

// check is the EPCM check of an access of the given kind to the enclave
// page containing va. It returns the page's entry, after bumping writeGen
// when the access writes an executable page.
func (a *AddressSpace) check(va uint64, kind evm.Access) (*epcmEntry, *evm.Fault) {
	pg := a.Enclave.page(va)
	if pg == nil {
		return nil, &evm.Fault{Kind: evm.FaultBadAddress, Addr: va, Msg: "unmapped enclave page"}
	}
	need, fault := PermX, evm.FaultExecPerm
	switch kind {
	case evm.Read:
		need, fault = PermR, evm.FaultReadPerm
	case evm.Write:
		need, fault = PermW, evm.FaultWritePerm
	}
	if pg.perm&need == 0 {
		return nil, &evm.Fault{Kind: fault, Addr: va, Msg: "EPCM permissions " + pg.perm.String()}
	}
	if kind == evm.Write && pg.perm&PermX != 0 {
		pg.writeGen++
	}
	return pg, nil
}

// access performs an enclave memory access with EPCM permission checks,
// one page at a time: accesses may legally span page boundaries (as the
// restorer's copy loop does). Load and Store reach an untraced access
// within one page directly instead.
func (a *AddressSpace) access(addr uint64, buf []byte, kind evm.Access) *evm.Fault {
	if a.PageTrace != nil {
		for p := addr &^ uint64(PageSize-1); p <= (addr+uint64(len(buf))-1)&^uint64(PageSize-1); p += PageSize {
			a.PageTrace(p/PageSize, kind)
		}
	}
	for len(buf) > 0 {
		pg, f := a.check(addr, kind)
		if f != nil {
			return f
		}
		var n int
		if kind == evm.Write {
			n = copy(pg.data[addr&(PageSize-1):], buf)
		} else {
			n = copy(buf, pg.data[addr&(PageSize-1):])
		}
		addr += uint64(n)
		buf = buf[n:]
	}
	return nil
}

// inPage reports whether an n-byte access at addr can skip access: it
// lies within one page and no trace is recording.
func (a *AddressSpace) inPage(addr uint64, n int) bool {
	return addr&(PageSize-1)+uint64(n) <= PageSize && a.PageTrace == nil
}

// Fetch implements evm.Bus. Instruction fetches must come from executable
// enclave pages; enclave threads cannot execute untrusted memory.
func (a *AddressSpace) Fetch(addr uint64, dst []byte) *evm.Fault {
	if !a.inELRange(addr) {
		return &evm.Fault{Kind: evm.FaultExecPerm, Addr: addr, Msg: "fetch outside ELRANGE"}
	}
	return a.access(addr, dst, evm.Exec)
}

// Load implements evm.Bus.
func (a *AddressSpace) Load(addr uint64, n int) (uint64, *evm.Fault) {
	if !a.inELRange(addr) {
		return a.Untrusted.Load(addr, n)
	}
	if a.inPage(addr, n) {
		pg, f := a.check(addr, evm.Read)
		if f != nil {
			return 0, f
		}
		return evm.LoadLE(pg.data[addr&(PageSize-1):], n), nil
	}
	var buf [8]byte
	if f := a.access(addr, buf[:n], evm.Read); f != nil {
		return 0, f
	}
	return evm.LoadLE(buf[:], n), nil
}

// Store implements evm.Bus.
func (a *AddressSpace) Store(addr uint64, n int, v uint64) *evm.Fault {
	if !a.inELRange(addr) {
		return a.Untrusted.Store(addr, n, v)
	}
	if a.inPage(addr, n) {
		pg, f := a.check(addr, evm.Write)
		if f != nil {
			return f
		}
		evm.StoreLE(pg.data[addr&(PageSize-1):], n, v)
		return nil
	}
	var buf [8]byte
	evm.StoreLE(buf[:], 8, v)
	return a.access(addr, buf[:n], evm.Write)
}

// EnclaveReadBytes copies out enclave memory on behalf of *enclave* code
// (intrinsics modeling statically linked library routines). Requires R.
func (a *AddressSpace) EnclaveReadBytes(addr uint64, n int) ([]byte, *evm.Fault) {
	out := make([]byte, n)
	if a.inELRange(addr) {
		if f := a.access(addr, out, evm.Read); f != nil {
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
		return a.access(addr, data, evm.Write)
	}
	for i, b := range data {
		if f := a.Untrusted.Store(addr+uint64(i), 1, uint64(b)); f != nil {
			return f
		}
	}
	return nil
}
