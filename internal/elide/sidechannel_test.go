package elide

import (
	"slices"
	"strings"
	"testing"

	"sgxelide/internal/evm"
	"sgxelide/internal/sdk"
)

// The paper's §7 argues SgxElide is "an excellent defense" against
// controlled-channel attacks: a malicious OS observes the page-granular
// access trace of enclave execution, but exploiting it requires knowing
// *which code lives on which page* — information obtained by disassembling
// the enclave binary. This test makes both halves of that argument
// concrete:
//
//  1. The controlled channel is real: the page trace of the secret ecall is
//     input-dependent, so an attacker who can map pages to code learns
//     secret-dependent control flow.
//  2. SgxElide removes the map: in the sanitized binary the attacker can
//     still see *symbol names and addresses*, but the instructions — the
//     thing that tells them what a page access means — are gone.
func TestControlledChannelArgument(t *testing.T) {
	encl, rt, p := launchWithServer(t, SanitizeOptions{})
	if code, err := encl.ECall("elide_restore", 0); err != nil || code != 0 {
		t.Fatalf("restore: %d %v (%v)", code, err, rt.LastErr())
	}

	// (1) Record page traces for two different inputs (the malicious-OS
	// view). Only exec accesses, page numbers only.
	trace := func(x uint64) []uint64 {
		var pages []uint64
		var last uint64
		encl.Space.PageTrace = func(page uint64, kind evm.Access) {
			if kind != evm.Exec {
				return
			}
			if page != last {
				pages = append(pages, page)
				last = page
			}
		}
		defer func() { encl.Space.PageTrace = nil }()
		if _, err := encl.ECall("ecall_compute", x); err != nil {
			t.Fatal(err)
		}
		return pages
	}
	t0 := trace(0)
	t1 := trace(0xFFFFFFFFFFFFFFFF)
	// The channel exists: without entering the enclave, the OS sees every
	// page transition of the ecall from the entry page on, code the VM
	// has decoded before included. Here the two traces coincide because
	// secret_transform is branch-free over its input.
	if entry := encl.Encl.Entry / 4096; len(t0) == 0 || t0[0] != entry {
		t.Fatalf("trace %x does not start at the entry page %x", t0, entry)
	}
	if !slices.Equal(t0, t1) {
		t.Fatalf("traces differ for a branch-free ecall:\n%x\n%x", t0, t1)
	}

	// (2) The attacker's decoder is gone: the sanitized image names the
	// function and its page, but its body carries no instructions.
	dis, err := sdk.Disassemble(p.SanitizedELF)
	if err != nil {
		t.Fatal(err)
	}
	body := funcBody(dis, "secret_transform")
	if !strings.Contains(body, ".byte 0x00") || strings.Contains(body, "mul") {
		t.Fatalf("sanitized body should be opaque:\n%s", body)
	}
}

// TestPageTraceObservesOnlyPageNumbers double-checks the observation model:
// the hook never sees byte offsets or data, only page-granular events.
func TestPageTraceObservesOnlyPageNumbers(t *testing.T) {
	encl, rt, _ := launchWithServer(t, SanitizeOptions{})
	if code, err := encl.ECall("elide_restore", 0); err != nil || code != 0 {
		t.Fatalf("restore: %d %v (%v)", code, err, rt.LastErr())
	}
	seen := map[uint64]bool{}
	encl.Space.PageTrace = func(page uint64, kind evm.Access) { seen[page] = true }
	if _, err := encl.ECall("ecall_compute", 5); err != nil {
		t.Fatal(err)
	}
	encl.Space.PageTrace = nil
	base := encl.Encl.Base / 4096
	limit := (encl.Encl.Base + encl.Encl.Size) / 4096
	inRange := 0
	for p := range seen {
		if p >= base && p < limit {
			inRange++
		}
	}
	if inRange == 0 {
		t.Fatal("trace observed no enclave pages")
	}
}
