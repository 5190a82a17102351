package evm

import (
	"fmt"
	"math"
)

// StopReason says why VM.Run returned.
type StopReason int

const (
	StopHalt  StopReason = iota // HALT executed
	StopExit                    // EEXIT executed (enclave exit / ocall)
	StopFault                   // machine fault
)

func (r StopReason) String() string {
	switch r {
	case StopHalt:
		return "halt"
	case StopExit:
		return "eexit"
	case StopFault:
		return "fault"
	}
	return "stop?"
}

// Stop describes how execution stopped.
type Stop struct {
	Reason StopReason
	Code   uint16 // EEXIT immediate, when Reason == StopExit
	Fault  *Fault // non-nil when Reason == StopFault
}

func (s Stop) String() string {
	switch s.Reason {
	case StopExit:
		return fmt.Sprintf("eexit(%d)", s.Code)
	case StopFault:
		return s.Fault.Error()
	default:
		return s.Reason.String()
	}
}

// Intrinsic is a host-implemented routine invoked by the INTRIN instruction.
// Intrinsics model statically linked platform library code (e.g. the SGX SDK
// crypto functions): they execute with the privileges of the running code and
// access memory through the VM. An intrinsic returning a non-nil fault stops
// the machine.
type Intrinsic func(m *VM) *Fault

// VM is one EVM hardware thread.
type VM struct {
	Mem     Bus
	Reg     [NumRegs]uint64
	PC      uint64
	Steps   uint64 // instructions executed so far (cumulative)
	Decodes uint64 // instructions decoded so far (cumulative); a cached one is not decoded again

	// MaxSteps, if non-zero, bounds the number of instructions a single Run
	// call may execute before faulting with FaultStep. It guards tests and
	// hostile enclaves against infinite loops.
	MaxSteps uint64

	// Intrinsics dispatches INTRIN instructions by immediate number.
	Intrinsics map[uint16]Intrinsic

	fetchBuf [16]byte
	cache    icache
}

// New returns a VM executing against mem. When mem implements CodePages
// the VM caches decoded instructions, invalidating on code writes.
func New(mem Bus) *VM {
	m := &VM{Mem: mem}
	m.cache.bus, _ = mem.(CodePages)
	return m
}

// SP returns the stack pointer.
func (m *VM) SP() uint64 { return m.Reg[RegSP] }

// SetSP sets the stack pointer.
func (m *VM) SetSP(v uint64) { m.Reg[RegSP] = v }

// push pushes v on the stack.
func (m *VM) push(v uint64) *Fault {
	m.Reg[RegSP] -= 8
	return m.Mem.Store(m.Reg[RegSP], 8, v)
}

// pop pops the top of stack.
func (m *VM) pop() (uint64, *Fault) {
	v, f := m.Mem.Load(m.Reg[RegSP], 8)
	if f == nil {
		m.Reg[RegSP] += 8
	}
	return v, f
}

// ReadBytes reads n bytes of memory at addr with read access, for use by
// intrinsics and host runtimes acting on behalf of executing code.
func (m *VM) ReadBytes(addr uint64, n int) ([]byte, *Fault) {
	out := make([]byte, n)
	for i := 0; i < n; {
		chunk := 8
		if n-i < 8 {
			chunk = 1
		}
		v, f := m.Mem.Load(addr+uint64(i), chunk)
		if f != nil {
			return nil, f
		}
		StoreLE(out[i:i+chunk], chunk, v)
		i += chunk
	}
	return out, nil
}

// WriteBytes writes b to memory at addr with write access.
func (m *VM) WriteBytes(addr uint64, b []byte) *Fault {
	for i := 0; i < len(b); {
		chunk := 8
		if len(b)-i < 8 {
			chunk = 1
		}
		v := LoadLE(b[i:i+chunk], chunk)
		if f := m.Mem.Store(addr+uint64(i), chunk, v); f != nil {
			return f
		}
		i += chunk
	}
	return nil
}

// Run executes instructions until the machine halts, exits, or faults. A
// cached instruction costs one slot access and one generation compare; the
// bus is asked about a page only when execution enters it.
func (m *VM) Run() Stop {
	limit := m.Steps + m.MaxSteps
	if m.MaxSteps == 0 || limit < m.Steps {
		limit = math.MaxUint64
	}
	// The page being executed is resolved afresh on every Run, so changes
	// the host makes between calls take effect.
	base := m.PC &^ (icachePageSize - 1)
	page := m.cache.enter(m.PC)
	var decoded slot // an uncached decode
	for {
		if m.Steps >= limit {
			return Stop{Reason: StopFault, Fault: &Fault{Kind: FaultStep, PC: m.PC}}
		}
		pc := m.PC
		if pc-base >= icachePageSize {
			base = pc &^ (icachePageSize - 1)
			page = m.cache.enter(pc)
		}
		in := page.lookup(pc)
		if in == nil {
			in = &decoded
			if f := m.decode(pc, in); f != nil {
				return m.fault(f, pc)
			}
			if page != nil {
				in = m.cache.store(page, pc, in)
			}
		}
		m.Steps++
		next := pc + uint64(in.size)

		switch in.op {
		case NOP:
		case HALT:
			m.PC = next
			return Stop{Reason: StopHalt}
		case MOV:
			m.Reg[in.rd] = m.Reg[in.ra]
		case MOVI:
			m.Reg[in.rd] = in.imm
		case LEA:
			m.Reg[in.rd] = next + in.imm

		case ADD:
			m.Reg[in.rd] = m.Reg[in.ra] + m.Reg[in.rb]
		case SUB:
			m.Reg[in.rd] = m.Reg[in.ra] - m.Reg[in.rb]
		case MUL:
			m.Reg[in.rd] = m.Reg[in.ra] * m.Reg[in.rb]
		case DIVU, DIVS, REMU, REMS:
			b := m.Reg[in.rb]
			if b == 0 {
				return m.fault(&Fault{Kind: FaultDivideByZero}, pc)
			}
			a := m.Reg[in.ra]
			switch in.op {
			case DIVU:
				m.Reg[in.rd] = a / b
			case REMU:
				m.Reg[in.rd] = a % b
			case DIVS:
				if int64(a) == -1<<63 && int64(b) == -1 {
					m.Reg[in.rd] = a // wrap like x86/RISC-V would overflow-wrap
				} else {
					m.Reg[in.rd] = uint64(int64(a) / int64(b))
				}
			case REMS:
				if int64(a) == -1<<63 && int64(b) == -1 {
					m.Reg[in.rd] = 0
				} else {
					m.Reg[in.rd] = uint64(int64(a) % int64(b))
				}
			}
		case AND:
			m.Reg[in.rd] = m.Reg[in.ra] & m.Reg[in.rb]
		case OR:
			m.Reg[in.rd] = m.Reg[in.ra] | m.Reg[in.rb]
		case XOR:
			m.Reg[in.rd] = m.Reg[in.ra] ^ m.Reg[in.rb]
		case SHL:
			m.Reg[in.rd] = m.Reg[in.ra] << (m.Reg[in.rb] & 63)
		case SHRU:
			m.Reg[in.rd] = m.Reg[in.ra] >> (m.Reg[in.rb] & 63)
		case SHRS:
			m.Reg[in.rd] = uint64(int64(m.Reg[in.ra]) >> (m.Reg[in.rb] & 63))
		case SLT:
			m.Reg[in.rd] = b2u(int64(m.Reg[in.ra]) < int64(m.Reg[in.rb]))
		case SLTU:
			m.Reg[in.rd] = b2u(m.Reg[in.ra] < m.Reg[in.rb])
		case SEQ:
			m.Reg[in.rd] = b2u(m.Reg[in.ra] == m.Reg[in.rb])
		case SNE:
			m.Reg[in.rd] = b2u(m.Reg[in.ra] != m.Reg[in.rb])

		case ADDI:
			m.Reg[in.rd] = m.Reg[in.ra] + in.imm
		case MULI:
			m.Reg[in.rd] = m.Reg[in.ra] * in.imm
		case ANDI:
			m.Reg[in.rd] = m.Reg[in.ra] & in.imm
		case ORI:
			m.Reg[in.rd] = m.Reg[in.ra] | in.imm
		case XORI:
			m.Reg[in.rd] = m.Reg[in.ra] ^ in.imm
		case SHLI:
			m.Reg[in.rd] = m.Reg[in.ra] << (in.imm & 63)
		case SHRUI:
			m.Reg[in.rd] = m.Reg[in.ra] >> (in.imm & 63)
		case SHRSI:
			m.Reg[in.rd] = uint64(int64(m.Reg[in.ra]) >> (in.imm & 63))
		case SLTI:
			m.Reg[in.rd] = b2u(int64(m.Reg[in.ra]) < int64(in.imm))
		case SLTUI:
			m.Reg[in.rd] = b2u(m.Reg[in.ra] < in.imm)

		case NOT:
			m.Reg[in.rd] = ^m.Reg[in.ra]
		case NEG:
			m.Reg[in.rd] = -m.Reg[in.ra]
		case SEXT:
			v := m.Reg[in.ra]
			switch in.w {
			case 1:
				m.Reg[in.rd] = uint64(int64(int8(v)))
			case 2:
				m.Reg[in.rd] = uint64(int64(int16(v)))
			case 4:
				m.Reg[in.rd] = uint64(int64(int32(v)))
			}
		case ZEXT:
			v := m.Reg[in.ra]
			switch in.w {
			case 1:
				m.Reg[in.rd] = v & 0xff
			case 2:
				m.Reg[in.rd] = v & 0xffff
			case 4:
				m.Reg[in.rd] = v & 0xffffffff
			}

		case BEQ:
			if m.Reg[in.rd] == m.Reg[in.ra] {
				next += in.imm
			}
		case BNE:
			if m.Reg[in.rd] != m.Reg[in.ra] {
				next += in.imm
			}
		case BLT:
			if int64(m.Reg[in.rd]) < int64(m.Reg[in.ra]) {
				next += in.imm
			}
		case BLTU:
			if m.Reg[in.rd] < m.Reg[in.ra] {
				next += in.imm
			}
		case BGE:
			if int64(m.Reg[in.rd]) >= int64(m.Reg[in.ra]) {
				next += in.imm
			}
		case BGEU:
			if m.Reg[in.rd] >= m.Reg[in.ra] {
				next += in.imm
			}

		case JMP:
			next += in.imm
		case JMPR:
			next = m.Reg[in.rd]
		case CALL:
			if f := m.push(next); f != nil {
				return m.fault(f, pc)
			}
			next += in.imm
		case CALLR:
			target := m.Reg[in.rd]
			if f := m.push(next); f != nil {
				return m.fault(f, pc)
			}
			next = target
		case RET:
			v, f := m.pop()
			if f != nil {
				return m.fault(f, pc)
			}
			next = v

		case LD8U, LD8S, LD16U, LD16S, LD32U, LD32S, LD64:
			addr := m.Reg[in.ra] + in.imm
			var width int
			switch in.op {
			case LD8U, LD8S:
				width = 1
			case LD16U, LD16S:
				width = 2
			case LD32U, LD32S:
				width = 4
			default:
				width = 8
			}
			v, f := m.Mem.Load(addr, width)
			if f != nil {
				return m.fault(f, pc)
			}
			switch in.op {
			case LD8S:
				v = uint64(int64(int8(v)))
			case LD16S:
				v = uint64(int64(int16(v)))
			case LD32S:
				v = uint64(int64(int32(v)))
			}
			m.Reg[in.rd] = v
		case ST8, ST16, ST32, ST64:
			addr := m.Reg[in.ra] + in.imm
			var width int
			switch in.op {
			case ST8:
				width = 1
			case ST16:
				width = 2
			case ST32:
				width = 4
			default:
				width = 8
			}
			if f := m.Mem.Store(addr, width, m.Reg[in.rd]); f != nil {
				return m.fault(f, pc)
			}

		case PUSH:
			if f := m.push(m.Reg[in.rd]); f != nil {
				return m.fault(f, pc)
			}
		case POP:
			v, f := m.pop()
			if f != nil {
				return m.fault(f, pc)
			}
			m.Reg[in.rd] = v

		case EEXIT:
			m.PC = next
			return Stop{Reason: StopExit, Code: uint16(in.imm)}
		case INTRIN:
			fn := m.Intrinsics[uint16(in.imm)]
			if fn == nil {
				return m.fault(&Fault{Kind: FaultIntrinsic, Msg: fmt.Sprintf("unknown intrinsic %d", int64(in.imm))}, pc)
			}
			m.PC = next // intrinsics may inspect/modify PC (none do today)
			if f := fn(m); f != nil {
				return m.fault(f, pc)
			}
			continue
		case BRK:
			return m.fault(&Fault{Kind: FaultBreak}, pc)
		default:
			return m.fault(&Fault{Kind: FaultIllegalInst, Msg: in.op.String()}, pc)
		}

		m.PC = next
	}
}

// decode fetches and decodes the instruction at pc into s, uncached.
func (m *VM) decode(pc uint64, s *slot) *Fault {
	// Fetch the opcode byte, then the operand bytes.
	if f := m.Mem.Fetch(pc, m.fetchBuf[:1]); f != nil {
		return f
	}
	op := Opcode(m.fetchBuf[0])
	if !op.Valid() {
		return &Fault{Kind: FaultIllegalInst, Msg: fmt.Sprintf("opcode %#02x", byte(op))}
	}
	n := op.Length()
	if n > 1 {
		if f := m.Mem.Fetch(pc+1, m.fetchBuf[1:n]); f != nil {
			return f
		}
	}
	m.Decodes++
	in, _, err := Decode(m.fetchBuf[:n])
	if err != nil {
		return &Fault{Kind: FaultIllegalInst, Msg: err.Error()}
	}
	imm := uint64(in.Imm)
	if in.Op.OpForm() == FormRI64 {
		imm = in.U64
	}
	*s = slot{op: in.Op, rd: in.Rd, ra: in.Ra, rb: in.Rb, w: in.W, size: uint8(n), imm: imm}
	return nil
}

// fault finalizes a fault at pc and stops the machine.
func (m *VM) fault(f *Fault, pc uint64) Stop {
	f.PC = pc
	m.PC = pc
	return Stop{Reason: StopFault, Fault: f}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
