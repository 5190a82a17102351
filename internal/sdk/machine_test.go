package sdk

import (
	"errors"
	"runtime"
	"testing"

	"sgxelide/internal/elf"
	"sgxelide/internal/link"
	"sgxelide/internal/sgx"
)

// TestMachineHeapScalesWithEnclave keeps 64 simulated machines live, each a
// platform, a host and one launched test enclave, and bounds the heap they
// hold: a machine may cost at most twice its enclave's EADDed bytes plus
// 1 MiB, however large the EPC budget and the untrusted memory it reserves.
func TestMachineHeapScalesWithEnclave(t *testing.T) {
	const machines = 64
	signer, res, ss := signTestEnclave(t)
	ca, err := sgx.NewCA()
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	live := make([]*Enclave, machines)
	for i := range live {
		platform, err := sgx.NewPlatform(sgx.Config{}, ca)
		if err != nil {
			t.Fatal(err)
		}
		if live[i], err = NewHost(platform).CreateEnclave(res.ELF, ss, res.EDL); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	eadded := int64(signer.Platform.FreePages()-live[0].Host.Platform.FreePages()) * sgx.PageSize
	perMachine := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / machines
	limit := 2*eadded + 1<<20
	t.Logf("heap per machine %d KiB, EADDed %d KiB, limit %d KiB", perMachine>>10, eadded>>10, limit>>10)
	if eadded == 0 {
		t.Fatal("the test enclave EADDed nothing")
	}
	if perMachine > limit {
		t.Fatalf("each machine holds %d KiB of heap, over 2 x %d KiB EADDed + 1 MiB", perMachine>>10, eadded>>10)
	}
	runtime.KeepAlive(live)
}

// TestFarApartSegmentsRejected: an image whose two PT_LOAD segments lie a
// TiB apart spans an ELRANGE above MaxEnclaveSize; loading and measuring it
// fail with ErrEnclaveTooLarge, before any EPCM is allocated or EPC taken.
func TestFarApartSegmentsRejected(t *testing.T) {
	const text = 0x10000000
	im := &link.Image{
		Base:  text,
		End:   text + 1<<40 + sgx.PageSize,
		Entry: text,
		Segments: []*link.Segment{
			{Name: "text", Addr: text, Data: []byte{1, 2, 3, 4}, Size: sgx.PageSize, Perm: link.PermR | link.PermX},
			{Name: "data", Addr: text + 1<<40, Data: []byte{5, 6, 7, 8}, Size: sgx.PageSize, Perm: link.PermR | link.PermW},
		},
	}
	image := elf.Write(im)
	host, _, ss := signTestEnclave(t)
	free := host.Platform.FreePages()
	if _, err := MeasureELF(host, image); !errors.Is(err, sgx.ErrEnclaveTooLarge) {
		t.Errorf("MeasureELF: %v, want ErrEnclaveTooLarge", err)
	}
	if _, err := host.CreateEnclave(image, ss, nil); !errors.Is(err, sgx.ErrEnclaveTooLarge) {
		t.Errorf("CreateEnclave: %v, want ErrEnclaveTooLarge", err)
	}
	if got := host.Platform.FreePages(); got != free {
		t.Errorf("FreePages %d -> %d", free, got)
	}
}
