package evm

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestFlatMemBacksOnWrite: a fresh FlatMem backs nothing and reads as zero
// everywhere; writes back it up to the highest byte written, and a gap a
// write skips reads as zero.
func TestFlatMemBacksOnWrite(t *testing.T) {
	const size = 64 << 20
	m := NewFlatMem(0x1000, size)
	top := uint64(0x1000 + size)
	for _, n := range []int{1, 2, 4, 8} {
		if v, f := m.Load(top-uint64(n), n); f != nil || v != 0 {
			t.Fatalf("Load%d at the top: %#x %v", n, v, f)
		}
	}
	var code [16]byte
	if f := m.Fetch(0x1000, code[:]); f != nil || code != [16]byte{} {
		t.Fatalf("Fetch: %x %v", code, f)
	}
	if b, ok := m.ReadBytes(top-4096, 4096); !ok || !bytes.Equal(b, make([]byte, 4096)) {
		t.Fatal("ReadBytes of unwritten memory is not zero")
	}
	if len(m.data) != 0 {
		t.Fatalf("reads backed %d bytes", len(m.data))
	}

	if f := m.Store(0x1000+100, 4, 0xdeadbeef); f != nil {
		t.Fatal(f)
	}
	if len(m.data) != 104 {
		t.Fatalf("backed %d bytes after a store ending at offset 104", len(m.data))
	}
	if !m.WriteBytes(0x1000+1000, []byte{7, 8}) {
		t.Fatal("WriteBytes failed")
	}
	if len(m.data) != 1002 {
		t.Fatalf("backed %d bytes after a write ending at offset 1002", len(m.data))
	}
	if !m.WriteBytes(top, nil) || len(m.data) != 1002 {
		t.Fatalf("an empty write at the top backed %d bytes", len(m.data))
	}
	if v, _ := m.Load(0x1000+104, 8); v != 0 {
		t.Fatalf("the gap a write skipped reads %#x", v)
	}
	if v, _ := m.Load(0x1000+100, 4); v != 0xdeadbeef {
		t.Fatalf("Load4 = %#x", v)
	}
	// Writing the top byte backs everything below it, and nothing breaks.
	if f := m.Store(top-1, 1, 0x5a); f != nil {
		t.Fatal(f)
	}
	if v, _ := m.Load(top-8, 8); v != 0x5a<<56 {
		t.Fatalf("Load8 below the top = %#x", v)
	}
	if v, _ := m.Load(0x1000+1000, 2); v != 0x0807 {
		t.Fatalf("earlier write lost: %#x", v)
	}
}

// TestFlatMemStraddlesBackedPrefix: every accessor reads and writes across
// the end of the backed prefix as if all of memory were backed.
func TestFlatMemStraddlesBackedPrefix(t *testing.T) {
	fresh := func() *FlatMem {
		m := NewFlatMem(0x1000, 4096)
		m.WriteBytes(0x1000, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
		return m
	}
	m := fresh()
	if v, f := m.Load(0x100c, 8); f != nil || v != 0x100f0e0d {
		t.Errorf("Load8 across the prefix end = %#x %v", v, f)
	}
	if v, f := m.Load(0x100f, 2); f != nil || v != 0x10 {
		t.Errorf("Load2 across the prefix end = %#x %v", v, f)
	}
	var dst [16]byte
	for i := range dst {
		dst[i] = 0xee // Fetch must overwrite stale bytes with zero
	}
	if f := m.Fetch(0x1008, dst[:]); f != nil || dst != [16]byte{9, 10, 11, 12, 13, 14, 15, 16} {
		t.Errorf("Fetch across the prefix end = %x %v", dst, f)
	}
	if b, ok := m.ReadBytes(0x100e, 4); !ok || !bytes.Equal(b, []byte{15, 16, 0, 0}) {
		t.Errorf("ReadBytes across the prefix end = %x %v", b, ok)
	}

	if f := m.Store(0x100c, 8, 0x1122334455667788); f != nil {
		t.Fatal(f)
	}
	if b, _ := m.ReadBytes(0x100a, 12); !bytes.Equal(b, []byte{11, 12, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, 0, 0}) {
		t.Errorf("after Store8 across the prefix end: %x", b)
	}
	m = fresh()
	if !m.WriteBytes(0x100e, []byte{0xa, 0xb, 0xc, 0xd}) {
		t.Fatal("WriteBytes failed")
	}
	if v, _ := m.Load(0x100c, 8); v != 0x0d0c0b0a0e0d {
		t.Errorf("after WriteBytes across the prefix end: %#x", v)
	}
}

// TestFlatMemBoundsUnchanged: accesses outside [Base, Base+size) fault, or
// report failure, exactly where they always have, and a refused write backs
// nothing.
func TestFlatMemBoundsUnchanged(t *testing.T) {
	const base, size = 0x1000, 4096
	m := NewFlatMem(base, size)
	bad := func(what string, f *Fault, addr uint64) {
		t.Helper()
		if f == nil || f.Kind != FaultBadAddress || f.Addr != addr {
			t.Errorf("%s: %v, want bad address at %#x", what, f, addr)
		}
	}
	var dst [8]byte
	for _, addr := range []uint64{0, base - 1, base + size - 7, base + size, ^uint64(0) - 3} {
		_, f := m.Load(addr, 8)
		bad("Load8", f, addr)
		bad("Store8", m.Store(addr, 8, 1), addr)
		bad("Fetch8", m.Fetch(addr, dst[:]), addr)
		if _, ok := m.ReadBytes(addr, 8); ok {
			t.Errorf("ReadBytes(%#x, 8) succeeded", addr)
		}
		if m.WriteBytes(addr, dst[:]) {
			t.Errorf("WriteBytes(%#x, 8) succeeded", addr)
		}
	}
	if len(m.data) != 0 {
		t.Fatalf("refused writes backed %d bytes", len(m.data))
	}
	if f := m.Store(base+size-8, 8, 1); f != nil {
		t.Errorf("Store8 at the last word: %v", f)
	}
	if _, f := m.Load(base+size-1, 1); f != nil {
		t.Errorf("Load1 at the last byte: %v", f)
	}
}

// TestFlatMemMatchesEagerModel drives seeded random accesses, in and out of
// bounds, against a FlatMem and an eagerly allocated byte slice: results,
// faults and contents must agree.
func TestFlatMemMatchesEagerModel(t *testing.T) {
	const base, size = 0x4000, 3 * 4096
	m := NewFlatMem(base, size)
	ref := make([]byte, size)
	in := func(addr uint64, n int) bool { return addr >= base && addr-base+uint64(n) <= size }
	rng := rand.New(rand.NewSource(1))
	widths := []int{1, 2, 4, 8}
	for i := 0; i < 20000; i++ {
		addr := base - 16 + uint64(rng.Intn(size+32))
		switch op := rng.Intn(5); op {
		case 0:
			n := widths[rng.Intn(4)]
			v, f := m.Load(addr, n)
			if f != nil != !in(addr, n) {
				t.Fatalf("op %d: Load%d(%#x) fault %v", i, n, addr, f)
			}
			if f == nil {
				want := LoadLE(ref[addr-base:], n)
				if v != want {
					t.Fatalf("op %d: Load%d(%#x) = %#x, want %#x", i, n, addr, v, want)
				}
			}
		case 1:
			n, v := widths[rng.Intn(4)], rng.Uint64()
			f := m.Store(addr, n, v)
			if f != nil != !in(addr, n) {
				t.Fatalf("op %d: Store%d(%#x) fault %v", i, n, addr, f)
			}
			if f == nil {
				StoreLE(ref[addr-base:], n, v)
			}
		case 2:
			dst := make([]byte, rng.Intn(24))
			f := m.Fetch(addr, dst)
			if f != nil != !in(addr, len(dst)) {
				t.Fatalf("op %d: Fetch(%#x, %d) fault %v", i, addr, len(dst), f)
			}
			if f == nil && !bytes.Equal(dst, ref[addr-base:addr-base+uint64(len(dst))]) {
				t.Fatalf("op %d: Fetch(%#x) = %x", i, addr, dst)
			}
		case 3:
			n := rng.Intn(64)
			b, ok := m.ReadBytes(addr, n)
			if ok != in(addr, n) {
				t.Fatalf("op %d: ReadBytes(%#x, %d) ok = %v", i, addr, n, ok)
			}
			if ok && !bytes.Equal(b, ref[addr-base:addr-base+uint64(n)]) {
				t.Fatalf("op %d: ReadBytes(%#x) = %x", i, addr, b)
			}
		default:
			b := make([]byte, rng.Intn(64))
			rng.Read(b)
			ok := m.WriteBytes(addr, b)
			if ok != in(addr, len(b)) {
				t.Fatalf("op %d: WriteBytes(%#x, %d) ok = %v", i, addr, len(b), ok)
			}
			if ok {
				copy(ref[addr-base:], b)
			}
		}
	}
	got, _ := m.ReadBytes(base, size)
	if !bytes.Equal(got, ref) {
		t.Fatal("final contents differ from the eager model")
	}
}
