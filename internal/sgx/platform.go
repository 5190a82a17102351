// Package sgx implements a software model of the Intel SGX platform: the
// Enclave Page Cache (EPC) with per-page EPCM permissions, the enclave
// lifecycle instructions (ECREATE/EADD/EEXTEND/EINIT), measurement,
// SIGSTRUCT signature verification, key derivation (EGETKEY), local
// attestation reports (EREPORT), a quoting enclave for remote attestation,
// and memory-encryption-at-rest semantics for EPC contents.
//
// The model preserves every property SgxElide depends on:
//
//   - Enclave contents are measured page by page before EINIT; EINIT fails
//     unless the SIGSTRUCT's measurement matches, so the *sanitized* enclave
//     is what gets attested.
//   - Page permissions are fixed at EADD and enforced by the CPU (the EVM
//     bus) on every access; there is no way to change them at runtime
//     (SGXv1), which is why the sanitizer must set PF_W statically. An
//     optional SGXv2 EMODPR-style restriction is provided for the paper's
//     §7 mitigation.
//   - Non-enclave (host) accesses to EPC get abort-page semantics: reads
//     return 0xFF, writes are dropped.
//   - Sealing keys derive from a per-platform hardware fuse key and the
//     enclave identity, so sealed blobs are bound to (platform, enclave).
package sgx

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
)

// PageSize is the EPC page granularity.
const PageSize = 4096

// Perm is an EPCM page permission mask.
type Perm byte

const (
	PermR Perm = 1 << 0
	PermW Perm = 1 << 1
	PermX Perm = 1 << 2
)

func (p Perm) String() string {
	s := [3]byte{'-', '-', '-'}
	if p&PermR != 0 {
		s[0] = 'r'
	}
	if p&PermW != 0 {
		s[1] = 'w'
	}
	if p&PermX != 0 {
		s[2] = 'x'
	}
	return string(s[:])
}

// epcmEntry is one EPCM slot: the EPC page mapped at one ELRANGE page and
// its permissions. data is nil while the slot is unmapped.
type epcmEntry struct {
	data *[PageSize]byte
	perm Perm

	// writeGen increases on every write to this page while it is
	// executable, on EMODPR and on Destroy. It is the page's generation
	// word: the VM's decoded-instruction cache holds the page's decodes
	// while it holds (see evm.CodePages).
	writeGen uint64
}

// MaxEnclaveSize is the largest ELRANGE ECREATE accepts: the model's
// CPUID.(EAX=12H,ECX=0):EDX MaxEnclaveSize, 2^31 bytes. It bounds the EPCM
// slice an enclave image (outside input) can make ECREATE allocate.
const MaxEnclaveSize = 1 << 31

// ErrEnclaveTooLarge is returned by ECREATE for an ELRANGE larger than
// MaxEnclaveSize.
var ErrEnclaveTooLarge = errors.New("sgx: ELRANGE exceeds MaxEnclaveSize")

// Config controls platform construction.
type Config struct {
	EPCPages int  // EPC budget in pages; default 32768 (128 MiB)
	SGX2     bool // enable the EMODPR-style permission-restrict extension
}

// Platform is one SGX-capable machine: its EPC, its fused secrets, and its
// provisioned quoting enclave.
//
// The EPC is a budget of cfg.EPCPages pages, as the PRM reserves a fixed
// amount of DRAM, but the model only backs the pages live enclaves hold: EADD
// takes a page while the budget lasts, and Destroy wipes its enclave's pages
// and keeps them for reuse.
type Platform struct {
	cfg     Config
	used    int               // EPC pages held by live enclaves
	spare   []*[PageSize]byte // zeroed pages not handed out
	fuseKey [32]byte          // hardware secret fused into the CPU
	meeKey  [32]byte          // memory encryption engine key (boot-random)

	qeKey  *ecdsa.PrivateKey // quoting enclave's device attestation key
	qeCert []byte            // CA signature over the QE public key
	caPub  *ecdsa.PublicKey
}

// NewPlatform manufactures a platform provisioned by ca (the "Intel" root
// of trust that signs the device attestation key).
func NewPlatform(cfg Config, ca *CA) (*Platform, error) {
	if cfg.EPCPages == 0 {
		cfg.EPCPages = 32768
	}
	p := &Platform{cfg: cfg}
	if _, err := rand.Read(p.fuseKey[:]); err != nil {
		return nil, fmt.Errorf("sgx: fusing platform key: %w", err)
	}
	if _, err := rand.Read(p.meeKey[:]); err != nil {
		return nil, fmt.Errorf("sgx: MEE key: %w", err)
	}
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("sgx: device key: %w", err)
	}
	p.qeKey = key
	p.qeCert, err = ca.signDeviceKey(&key.PublicKey)
	if err != nil {
		return nil, err
	}
	p.caPub = &ca.key.PublicKey
	return p, nil
}

// FreePages returns the number of unallocated EPC pages.
func (p *Platform) FreePages() int { return p.cfg.EPCPages - p.used }

// SGX2 reports whether the EMODPR-style extension is enabled.
func (p *Platform) SGX2() bool { return p.cfg.SGX2 }

// epcChunk is how many fresh pages allocPage allocates at once: one 256 KiB
// allocation costs far less than 64 small ones, and a platform holds at most
// epcChunk-1 pages it has not handed out.
const epcChunk = 64

// allocPage takes a zeroed EPC page out of the budget: a spare one if
// Destroy left any, a fresh one otherwise.
func (p *Platform) allocPage() (*[PageSize]byte, error) {
	if p.used >= p.cfg.EPCPages {
		return nil, fmt.Errorf("sgx: EPC exhausted")
	}
	if len(p.spare) == 0 {
		fresh := make([][PageSize]byte, min(epcChunk, p.cfg.EPCPages-p.used))
		for i := range fresh {
			p.spare = append(p.spare, &fresh[i])
		}
	}
	p.used++
	n := len(p.spare)
	pg := p.spare[n-1]
	p.spare[n-1] = nil
	p.spare = p.spare[:n-1]
	return pg, nil
}

// freePage wipes a page (EREMOVE) and returns it to the budget.
func (p *Platform) freePage(pg *[PageSize]byte) {
	clear(pg[:])
	p.spare = append(p.spare, pg)
	p.used--
}

// deriveKey derives a platform-bound key: HMAC-SHA256(fuseKey, purpose ||
// material), truncated to 16 bytes (AES-128, as the SGX SDK uses).
func (p *Platform) deriveKey(purpose string, material []byte) []byte {
	mac := hmac.New(sha256.New, p.fuseKey[:])
	mac.Write([]byte(purpose))
	mac.Write([]byte{0})
	mac.Write(material)
	return mac.Sum(nil)[:16]
}

// HostRead models a non-enclave read of physical memory backing an enclave
// page: abort-page semantics return 0xFF regardless of contents.
func (p *Platform) HostRead(e *Enclave, vaddr uint64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = 0xFF
	}
	return out
}

// HostWrite models a non-enclave write to enclave memory: silently dropped.
func (p *Platform) HostWrite(e *Enclave, vaddr uint64, data []byte) {}

// DumpDRAM returns what a physical attacker probing DRAM would see for one
// enclave page: the MEE keeps EPC contents encrypted at rest (modeled as
// AES-CTR under the boot-time MEE key with the page address as nonce).
func (p *Platform) DumpDRAM(e *Enclave, vaddr uint64) ([]byte, error) {
	pg := e.page(vaddr)
	if pg == nil {
		return nil, fmt.Errorf("sgx: no EPC page at %#x", vaddr)
	}
	return meeEncrypt(p.meeKey, vaddr, pg.data[:]), nil
}
