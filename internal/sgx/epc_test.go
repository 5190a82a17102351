package sgx

import (
	"bytes"
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"sgxelide/internal/evm"
)

// TestMeasurementGolden pins MRENCLAVE of a fixed, sparse page set: the
// measurement a signer predicts must not move when the EPC's data
// structures change.
func TestMeasurementGolden(t *testing.T) {
	_, p := testEnv(t, Config{EPCPages: 16})
	pages, perms := map[uint64][]byte{}, map[uint64]Perm{}
	for n, perm := range map[int]Perm{0: PermR | PermX, 1: PermR | PermW | PermX, 3: PermR | PermW, 15: PermR} {
		page := make([]byte, PageSize)
		for i := range page {
			page[i] = byte(n*31 + i*7 + i>>8)
		}
		va := base + uint64(n)*PageSize
		pages[va], perms[va] = page, perm
	}
	e := addPages(t, p, pages, perms)
	const want = "92aa532dfe34621e4c00e19b72fbda82b3942870362e4ec446033d316bfb6df4"
	m := e.Measure()
	if got := hex.EncodeToString(m[:]); got != want {
		t.Fatalf("MRENCLAVE = %s, want %s", got, want)
	}
}

// TestEPCBudget: EADD succeeds while the platform's page budget lasts, over
// every enclave on the platform, and Destroy gives the pages back.
func TestEPCBudget(t *testing.T) {
	_, p := testEnv(t, Config{EPCPages: 6})
	a := addPages(t, p, map[uint64][]byte{base: nil, base + PageSize: nil, base + 2*PageSize: nil, base + 3*PageSize: nil}, nil)
	if got := p.FreePages(); got != 2 {
		t.Fatalf("FreePages = %d, want 2", got)
	}
	b, err := p.ECreate(base, size, entry)
	if err != nil {
		t.Fatal(err)
	}
	pg := make([]byte, PageSize)
	for n := uint64(0); n < 2; n++ {
		if err := p.EAdd(b, base+n*PageSize, PermR, pg); err != nil {
			t.Fatal(err)
		}
	}
	err = p.EAdd(b, base+2*PageSize, PermR, pg)
	if err == nil || !strings.Contains(err.Error(), "EPC exhausted") {
		t.Fatalf("EADD past the budget: %v, want EPC exhausted", err)
	}
	if _, ok := b.PagePerm(base + 2*PageSize); ok {
		t.Error("failed EADD mapped a page")
	}
	p.Destroy(a)
	if got := p.FreePages(); got != 4 {
		t.Fatalf("FreePages after destroying 4 of 6 = %d, want 4", got)
	}
	p.Destroy(a) // idempotent
	if got := p.FreePages(); got != 4 {
		t.Fatalf("FreePages after a second Destroy = %d, want 4", got)
	}
	p.Destroy(b)
	if got := p.FreePages(); got != 6 {
		t.Fatalf("FreePages after destroying all = %d, want 6", got)
	}

	// Relaunch: the whole budget is available again, and no more.
	key := devKey(t)
	all := map[uint64][]byte{}
	for n := uint64(0); n < 6; n++ {
		all[base+n*PageSize] = []byte{byte(n)}
	}
	c := buildEnclave(t, p, key, all, nil)
	if got := p.FreePages(); got != 0 {
		t.Fatalf("FreePages after relaunch = %d, want 0", got)
	}
	p.Destroy(c)
	if got := p.FreePages(); got != 6 {
		t.Fatalf("FreePages after relaunch and destroy = %d, want 6", got)
	}
}

// TestDestroyWipesPagesBeforeReuse: a destroyed enclave's pages are zero
// before another enclave can be given them, the next enclave reuses them
// rather than allocating more, and it starts with fresh EPCM entries.
func TestDestroyWipesPagesBeforeReuse(t *testing.T) {
	_, p := testEnv(t, Config{EPCPages: 4})
	secret := bytes.Repeat([]byte{0xA5}, PageSize)
	e := addPages(t, p, map[uint64][]byte{base: secret, base + PageSize: secret},
		map[uint64]Perm{base: PermR | PermW | PermX, base + PageSize: PermR | PermW})
	as := &AddressSpace{Enclave: e, Untrusted: evm.NewFlatMem(0x1000, 4096)}
	if f := as.EnclaveWriteBytes(base, []byte{1, 2, 3}); f != nil { // bumps the X page's writeGen
		t.Fatal(f)
	}
	p.Destroy(e)
	frames := map[*[PageSize]byte]bool{}
	for _, pg := range p.spare {
		frames[pg] = true
		if *pg != ([PageSize]byte{}) {
			t.Fatal("a destroyed page is not wiped")
		}
	}
	if len(frames) != 4 {
		t.Fatalf("%d distinct spare pages after Destroy, want the whole budget of 4", len(frames))
	}
	if _, f := as.Load(base, 8); f == nil || f.Kind != evm.FaultBadAddress {
		t.Errorf("load from a destroyed enclave: %v, want bad address", f)
	}

	e2 := addPages(t, p, map[uint64][]byte{base: nil, base + PageSize: nil, base + 2*PageSize: nil, base + 3*PageSize: nil}, nil)
	if len(p.spare) != 0 {
		t.Errorf("%d spare pages with the budget in use", len(p.spare))
	}
	for n, ent := range e2.epcm[:4] {
		if !frames[ent.data] {
			t.Errorf("page %d is a fresh allocation, not a reused one", n)
		}
	}
	if ent := e2.epcm[0]; ent.perm != PermR|PermX || ent.writeGen != 0 {
		t.Errorf("reused page has perm %v writeGen %d, want r-x and 0", ent.perm, ent.writeGen)
	}
}

// TestUnmappedAndOutsideELRANGEFault: ELRANGE pages EADD never mapped, and
// accesses running off either end of ELRANGE, fault the way they always
// have, whatever structure indexes the EPCM.
func TestUnmappedAndOutsideELRANGEFault(t *testing.T) {
	_, p := testEnv(t, Config{EPCPages: 8, SGX2: true})
	key := devKey(t)
	last := base + size - PageSize
	code := make([]byte, PageSize)
	code[0] = byte(evm.HALT)
	e := buildEnclave(t, p, key,
		map[uint64][]byte{base: code, base + 2*PageSize: nil, last: nil},
		map[uint64]Perm{base: PermR | PermX, base + 2*PageSize: PermR | PermW, last: PermR | PermW | PermX})
	as := &AddressSpace{Enclave: e, Untrusted: evm.NewFlatMem(0x1000, 4096)}

	fault := func(what string, f *evm.Fault, kind evm.FaultKind, addr uint64) {
		t.Helper()
		if f == nil || f.Kind != kind || f.Addr != addr {
			t.Errorf("%s: fault %v, want %v at %#x", what, f, kind, addr)
		}
	}
	var b [8]byte
	_, f := as.Load(base+PageSize, 8)
	fault("load from an unmapped page", f, evm.FaultBadAddress, base+PageSize)
	fault("store to an unmapped page", as.Store(base+PageSize+8, 4, 1), evm.FaultBadAddress, base+PageSize+8)
	fault("fetch from an unmapped page", as.Fetch(base+PageSize, b[:1]), evm.FaultBadAddress, base+PageSize)
	_, f = as.Load(base+PageSize-4, 8)
	fault("load running into an unmapped page", f, evm.FaultBadAddress, base+PageSize)
	_, f = as.Load(base+size-4, 8)
	fault("load running off the end of ELRANGE", f, evm.FaultBadAddress, base+size)
	fault("fetch running off the end of ELRANGE", as.Fetch(base+size-4, b[:]), evm.FaultBadAddress, base+size)
	fault("fetch below ELRANGE", as.Fetch(base-PageSize, b[:1]), evm.FaultExecPerm, base-PageSize)
	fault("fetch above ELRANGE", as.Fetch(base+size, b[:1]), evm.FaultExecPerm, base+size)
	fault("fetch from untrusted memory", as.Fetch(0x1000, b[:1]), evm.FaultExecPerm, 0x1000)
	if f := as.Fetch(base, b[:1]); f != nil {
		t.Errorf("fetch from the mapped code page: %v", f)
	}

	for _, va := range []uint64{base + PageSize, base - PageSize, base + size, 0} {
		if _, ok := e.PagePerm(va); ok {
			t.Errorf("PagePerm(%#x) reports a mapped page", va)
		}
		if _, err := p.DumpDRAM(e, va); err == nil {
			t.Errorf("DumpDRAM(%#x) dumped an unmapped page", va)
		}
		if err := p.EModPR(e, va, PermR); err == nil {
			t.Errorf("EMODPR(%#x) restricted an unmapped page", va)
		}
	}
	if perm, ok := e.PagePerm(last + 100); !ok || perm != PermR|PermW|PermX {
		t.Errorf("PagePerm of the last ELRANGE page = %v, %v", perm, ok)
	}

	e2, err := p.ECreate(base, size, entry)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EExtend(e2, base); err == nil {
		t.Error("EEXTEND of an unmapped page accepted")
	}
	if err := p.EExtend(e2, base+size); err == nil {
		t.Error("EEXTEND outside ELRANGE accepted")
	}
}

// TestECreateBoundsELRANGE: ECREATE refuses an ELRANGE larger than
// MaxEnclaveSize before allocating its EPCM slice, and accepts the largest
// one allowed.
func TestECreateBoundsELRANGE(t *testing.T) {
	_, p := testEnv(t, Config{EPCPages: 8})
	_, err := p.ECreate(base, 1<<40, entry)
	if !errors.Is(err, ErrEnclaveTooLarge) {
		t.Fatalf("1 TiB ELRANGE: %v, want ErrEnclaveTooLarge", err)
	}
	_, err = p.ECreate(base, MaxEnclaveSize+PageSize, entry)
	if !errors.Is(err, ErrEnclaveTooLarge) {
		t.Fatalf("MaxEnclaveSize+1 page: %v, want ErrEnclaveTooLarge", err)
	}
	e, err := p.ECreate(base, MaxEnclaveSize, entry)
	if err != nil {
		t.Fatalf("MaxEnclaveSize ELRANGE: %v", err)
	}
	if err := p.EAdd(e, base+MaxEnclaveSize-PageSize, PermR, make([]byte, PageSize)); err != nil {
		t.Fatalf("EADD at the top of the largest ELRANGE: %v", err)
	}
	p.Destroy(e)
}
