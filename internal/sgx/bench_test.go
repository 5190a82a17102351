package sgx

import (
	"testing"

	"sgxelide/internal/evm"
)

// The evm package's interpreter benchmarks run on FlatMem, which has no
// decoded-instruction cache. These run the same loops on the enclave bus,
// where code is cached and loads and stores pass the EPCM check.

// benchVM loads code at start into an enclave of npages RWX pages from
// base and returns a VM on its address space, with no step bound.
func benchVM(b *testing.B, npages int, start uint64, code []byte) *evm.VM {
	b.Helper()
	img := make([]byte, npages*PageSize)
	copy(img[start-base:], code)
	pages := map[uint64][]byte{}
	for i := 0; i < npages; i++ {
		pages[base+uint64(i)*PageSize] = img[i*PageSize : (i+1)*PageSize]
	}
	_, _, m, _ := rwxEnclave(b, Config{EPCPages: 64}, pages, start)
	m.MaxSteps = 0
	return m
}

// benchLoop runs the VM from start b.N times, setting up registers with
// setup, and reports the instruction rate.
func benchLoop(b *testing.B, m *evm.VM, start uint64, setup func()) {
	b.Helper()
	b.ResetTimer()
	steps := m.Steps
	for i := 0; i < b.N; i++ {
		m.PC = start
		setup()
		if stop := m.Run(); stop.Reason != evm.StopHalt {
			b.Fatal(stop)
		}
	}
	b.ReportMetric(float64(m.Steps-steps)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// countLoop is "loop: addi r1, r1, 1; bne r1, r2, loop; halt".
func countLoop() []byte {
	addi := evm.Inst{Op: evm.ADDI, Rd: 1, Ra: 1, Imm: 1}
	bne := evm.Inst{Op: evm.BNE, Rd: 1, Ra: 2, Imm: -int64(addi.Len() + 7)}
	return Inst2Bytes(addi, bne, evm.Inst{Op: evm.HALT})
}

// BenchmarkEnclaveInterpreterThroughput is BenchmarkInterpreterThroughput
// on the enclave bus.
func BenchmarkEnclaveInterpreterThroughput(b *testing.B) {
	m := benchVM(b, 1, base, countLoop())
	benchLoop(b, m, base, func() { m.Reg[1], m.Reg[2] = 0, 1_000_000 })
}

// BenchmarkEnclaveStraddlingLoop is the same loop placed so that its addi
// spans a page boundary: every iteration enters both pages.
func BenchmarkEnclaveStraddlingLoop(b *testing.B) {
	start := base + PageSize - 3
	m := benchVM(b, 2, start, countLoop())
	benchLoop(b, m, start, func() { m.Reg[1], m.Reg[2] = 0, 1_000_000 })
}

// BenchmarkEnclaveMemoryOps is BenchmarkMemoryOps on the enclave bus: a
// word-copy loop over 16 KiB of enclave memory.
func BenchmarkEnclaveMemoryOps(b *testing.B) {
	body := []evm.Inst{
		{Op: evm.LD64, Rd: 3, Ra: 1},
		{Op: evm.ST64, Rd: 3, Ra: 2},
		{Op: evm.ADDI, Rd: 1, Ra: 1, Imm: 8},
		{Op: evm.ADDI, Rd: 2, Ra: 2, Imm: 8},
		{Op: evm.ADDI, Rd: 4, Ra: 4, Imm: -8},
	}
	n := len(Inst2Bytes(body...))
	body = append(body, evm.Inst{Op: evm.BNE, Rd: 4, Ra: 0, Imm: -int64(n + 7)}, evm.Inst{Op: evm.HALT})
	const bytes = 4 * PageSize
	m := benchVM(b, 1+2*bytes/PageSize, base, Inst2Bytes(body...))
	b.SetBytes(bytes)
	benchLoop(b, m, base, func() {
		m.Reg[0], m.Reg[1], m.Reg[2], m.Reg[4] = 0, base+PageSize, base+PageSize+bytes, bytes
	})
}
