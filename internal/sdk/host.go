package sdk

import (
	"fmt"

	"sgxelide/internal/edl"
	"sgxelide/internal/elf"
	"sgxelide/internal/evm"
	"sgxelide/internal/obs"
	"sgxelide/internal/sgx"
)

// EEXIT codes shared with the trusted runtime.
const (
	ExitReturn = 0 // ecall completed
	ExitOCall  = 1 // synchronous ocall: r1 = index, r2 = marshal address
	ExitAbort  = 2 // enclave abort
)

// Untrusted memory layout.
const (
	untrustedBase = 0x1000
	untrustedSize = 64 << 20
	arenaSize     = 256 << 10
)

// OcallContext gives an ocall handler access to its marshalled arguments
// and to untrusted memory.
type OcallContext struct {
	Host *Host
	ms   uint64
	fn   edl.Func
}

// Arg returns the i-th argument slot (a scalar value or an untrusted buffer
// address).
func (c *OcallContext) Arg(i int) uint64 {
	v, _ := c.Host.Mem.Load(c.ms+uint64(8*(1+i)), 8)
	return v
}

// ArgBytes returns the buffer argument i, whose length is n bytes.
func (c *OcallContext) ArgBytes(i int, n int) []byte {
	b, _ := c.Host.Mem.ReadBytes(c.Arg(i), n)
	return b
}

// SetArgBytes writes data into buffer argument i (for [out] parameters).
func (c *OcallContext) SetArgBytes(i int, data []byte) {
	c.Host.Mem.WriteBytes(c.Arg(i), data)
}

// Span returns the live span of the ocall being serviced (nil when the
// host has no tracer), so handlers can attach phase spans to it.
func (c *OcallContext) Span() *obs.Span { return c.Host.cur }

// OcallHandler services one ocall and returns its result value.
type OcallHandler func(c *OcallContext) (uint64, error)

// Host is the untrusted runtime (uRTS): it owns untrusted application
// memory, creates enclaves via the platform's instructions, dispatches
// ecalls, and services ocalls.
type Host struct {
	Platform *sgx.Platform
	Mem      *evm.FlatMem

	// Metrics, when set, receives ecall/ocall dispatch counters
	// (sdk.ecalls, sdk.ocalls, sdk.ecall_errors, sdk.ocall_errors).
	Metrics *obs.Registry

	// Tracer, when set, receives a span per ecall and per ocall dispatch.
	// Ocall handlers reach the live span through OcallContext.Span to
	// attach their own sub-spans; intrinsics attach theirs to the current
	// innermost span. Like the rest of the Host, tracing assumes one
	// goroutine drives ecalls on a given Host at a time.
	Tracer *obs.Tracer

	cursor uint64 // untrusted bump allocator
	arena  uint64 // ocall arena base

	cur *obs.Span // innermost live span of the dispatch in progress

	ocalls map[string]OcallHandler
}

// BeginSpan starts a span (a child of the current dispatch span, or a new
// trace root) and makes it the parent of subsequent ecall spans. The
// returned func restores the previous parent and ends the span; callers
// use this to group one logical operation — e.g. a whole restore — into a
// single trace. The span is nil (and everything still works) when the
// Host has no tracer.
func (h *Host) BeginSpan(name string) (*obs.Span, func()) {
	var sp *obs.Span
	if h.cur != nil {
		sp = h.cur.Child(name)
	} else {
		sp = h.Tracer.Start(name)
	}
	prev := h.cur
	h.cur = sp
	return sp, func() {
		h.cur = prev
		sp.End()
	}
}

// NewHost creates an untrusted runtime on the given platform.
func NewHost(p *sgx.Platform) *Host {
	h := &Host{
		Platform: p,
		Mem:      evm.NewFlatMem(untrustedBase, untrustedSize),
		cursor:   untrustedBase + arenaSize,
		arena:    untrustedBase,
		ocalls:   make(map[string]OcallHandler),
	}
	return h
}

// RegisterOcall installs the handler for the named ocall.
func (h *Host) RegisterOcall(name string, fn OcallHandler) { h.ocalls[name] = fn }

// Alloc reserves n bytes of untrusted memory (16-aligned).
func (h *Host) Alloc(n int) uint64 {
	h.cursor = (h.cursor + 15) &^ 15
	addr := h.cursor
	h.cursor += uint64(n)
	if h.cursor > untrustedBase+untrustedSize {
		panic("sdk: untrusted memory exhausted")
	}
	return addr
}

// AllocBytes copies data into fresh untrusted memory and returns its address.
func (h *Host) AllocBytes(data []byte) uint64 {
	addr := h.Alloc(len(data))
	h.Mem.WriteBytes(addr, data)
	return addr
}

// ReadBytes reads n bytes of untrusted memory.
func (h *Host) ReadBytes(addr uint64, n int) []byte {
	b, ok := h.Mem.ReadBytes(addr, n)
	if !ok {
		panic(fmt.Sprintf("sdk: bad untrusted read %#x+%d", addr, n))
	}
	return b
}

// Enclave is a loaded enclave instance plus its execution state — the
// handle sgx_create_enclave would return.
type Enclave struct {
	Host     *Host
	Encl     *sgx.Enclave
	VM       *evm.VM
	Space    *sgx.AddressSpace
	EDL      *edl.Interface
	midOCall bool

	// Steps accumulates instructions executed inside the enclave.
	Steps uint64
}

// CreateEnclave loads an enclave ELF image: ECREATE over its ELRANGE, EADD
// of every loadable page with the segment's p_flags permissions, EEXTEND of
// all contents (16 chunks per page), then EINIT against the SIGSTRUCT.
func (h *Host) CreateEnclave(elfBytes []byte, ss *sgx.SigStruct, iface *edl.Interface) (*Enclave, error) {
	f, err := elf.Read(elfBytes)
	if err != nil {
		return nil, err
	}
	if f.Machine != elf.EMachineEVM {
		return nil, fmt.Errorf("sdk: not an EVM enclave image")
	}
	base, end := f.Base(), f.End()
	encl, err := h.Platform.ECreate(base, end-base, f.Entry)
	if err != nil {
		return nil, err
	}
	if err := loadEnclavePages(h.Platform, encl, f); err != nil {
		return nil, err
	}
	if err := h.Platform.EInit(encl, ss); err != nil {
		return nil, err
	}

	space := &sgx.AddressSpace{Enclave: encl, Untrusted: h.Mem}
	vm := evm.New(space)
	vm.MaxSteps = 1 << 32
	e := &Enclave{Host: h, Encl: encl, VM: vm, Space: space, EDL: iface}
	installIntrinsics(e)
	return e, nil
}

// MeasureELF computes the measurement the loader would produce for an
// enclave image — the signing tool uses this to build the SIGSTRUCT. It
// runs ECREATE, EADD and EEXTEND on the host's platform and destroys the
// enclave before returning, so it holds one EPC page per image page while
// it runs and fails with "EPC exhausted" when the platform has too few free.
func MeasureELF(h *Host, elfBytes []byte) ([32]byte, error) {
	var zero [32]byte
	f, err := elf.Read(elfBytes)
	if err != nil {
		return zero, err
	}
	base, end := f.Base(), f.End()
	encl, err := h.Platform.ECreate(base, end-base, f.Entry)
	if err != nil {
		return zero, err
	}
	defer h.Platform.Destroy(encl)
	if err := loadEnclavePages(h.Platform, encl, f); err != nil {
		return zero, err
	}
	return encl.Measure(), nil
}

// loadEnclavePages EADDs and EEXTENDs every loadable page of an ELF image:
// the measured loading loop shared by enclave creation and the signing
// tool's measurement prediction.
func loadEnclavePages(p *sgx.Platform, encl *sgx.Enclave, f *elf.File) error {
	page := make([]byte, sgx.PageSize) // EADD copies it, so one buffer serves every page
	for _, ph := range f.Phdrs {
		if ph.Type != elf.PTLoad {
			continue
		}
		var perm sgx.Perm
		if ph.Flags&elf.PFR != 0 {
			perm |= sgx.PermR
		}
		if ph.Flags&elf.PFW != 0 {
			perm |= sgx.PermW
		}
		if ph.Flags&elf.PFX != 0 {
			perm |= sgx.PermX
		}
		npages := (ph.Memsz + sgx.PageSize - 1) / sgx.PageSize
		for i := uint64(0); i < npages; i++ {
			clear(page)
			fileOff := i * sgx.PageSize
			if fileOff < ph.Filesz {
				n := ph.Filesz - fileOff
				if n > sgx.PageSize {
					n = sgx.PageSize
				}
				copy(page, f.Raw[ph.Off+fileOff:ph.Off+fileOff+n])
			}
			va := ph.Vaddr + i*sgx.PageSize
			if err := p.EAdd(encl, va, perm, page); err != nil {
				return err
			}
			for off := uint64(0); off < sgx.PageSize; off += sgx.EExtendChunk {
				if err := p.EExtend(encl, va+off); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// ECall invokes the named ecall. Pointer arguments are untrusted-memory
// addresses the caller obtained from Host.Alloc/AllocBytes; the enclave
// bridge copies them in and out. Returns the ecall's 64-bit result.
func (e *Enclave) ECall(name string, args ...uint64) (ret uint64, err error) {
	idx, ok := e.EDL.EcallIndex(name)
	if !ok {
		return 0, fmt.Errorf("sdk: unknown ecall %q", name)
	}
	fn := e.EDL.Ecalls[idx]
	if len(args) != len(fn.Params) {
		return 0, fmt.Errorf("sdk: ecall %q wants %d args, got %d", name, len(fn.Params), len(args))
	}
	if e.midOCall {
		return 0, fmt.Errorf("sdk: re-entrant ecall while an ocall is outstanding")
	}

	e.Host.Metrics.Counter("sdk.ecalls").Inc()
	span, endSpan := e.Host.BeginSpan("ecall:" + name)
	defer func() {
		if err != nil {
			e.Host.Metrics.Counter("sdk.ecall_errors").Inc()
			span.SetError(err)
		} else {
			span.SetInt("ret", int64(ret))
		}
		endSpan()
	}()

	ms := e.Host.Alloc(8 * (1 + len(args)))
	e.Host.Mem.Store(ms, 8, 0)
	for i, a := range args {
		e.Host.Mem.Store(ms+uint64(8*(1+i)), 8, a)
	}

	// EENTER.
	vm := e.VM
	vm.PC = e.Encl.Entry
	vm.Reg[1] = uint64(idx)
	vm.Reg[2] = ms
	vm.Reg[3] = e.Host.arena

	start := vm.Steps
	defer func() {
		n := vm.Steps - start
		e.Steps += n
		span.SetInt("steps", int64(n))
	}()

	for {
		stop := vm.Run()
		switch stop.Reason {
		case evm.StopFault:
			return 0, fmt.Errorf("sdk: enclave fault during %q: %w", name, stop.Fault)
		case evm.StopHalt:
			return 0, fmt.Errorf("sdk: enclave executed HALT (not permitted in enclave mode)")
		case evm.StopExit:
			switch stop.Code {
			case ExitReturn:
				ret, _ := e.Host.Mem.Load(ms, 8)
				return ret, nil
			case ExitAbort:
				return 0, fmt.Errorf("sdk: enclave abort during %q", name)
			case ExitOCall:
				if err := e.dispatchOCall(); err != nil {
					return 0, fmt.Errorf("sdk: ocall during %q: %w", name, err)
				}
			default:
				return 0, fmt.Errorf("sdk: unknown EEXIT code %d", stop.Code)
			}
		}
	}
}

// dispatchOCall services one ocall exit and resumes.
func (e *Enclave) dispatchOCall() error {
	idx := int(e.VM.Reg[1])
	ms := e.VM.Reg[2]
	e.Host.Metrics.Counter("sdk.ocalls").Inc()
	if idx < 0 || idx >= len(e.EDL.Ocalls) {
		e.Host.Metrics.Counter("sdk.ocall_errors").Inc()
		return fmt.Errorf("bad ocall index %d", idx)
	}
	fn := e.EDL.Ocalls[idx]
	handler := e.Host.ocalls[fn.Name]
	if handler == nil {
		e.Host.Metrics.Counter("sdk.ocall_errors").Inc()
		return fmt.Errorf("no handler registered for ocall %q", fn.Name)
	}
	span, endSpan := e.Host.BeginSpan("ocall:" + fn.Name)
	e.midOCall = true
	ret, err := safeOCall(handler, &OcallContext{Host: e.Host, ms: ms, fn: fn})
	e.midOCall = false
	span.SetError(err)
	endSpan()
	if err != nil {
		e.Host.Metrics.Counter("sdk.ocall_errors").Inc()
		return err
	}
	e.Host.Mem.Store(ms, 8, ret)
	e.VM.Reg[0] = 0
	return nil
}

// safeOCall contains a panicking ocall handler: the restore path reports
// the failure to the caller as an ecall error instead of tearing down the
// whole untrusted process.
func safeOCall(handler OcallHandler, c *OcallContext) (ret uint64, err error) {
	defer func() {
		if r := recover(); r != nil {
			ret, err = 0, fmt.Errorf("ocall %q panicked: %v", c.fn.Name, r)
		}
	}()
	return handler(c)
}

// Destroy releases the enclave's EPC pages.
func (e *Enclave) Destroy() { e.Host.Platform.Destroy(e.Encl) }
