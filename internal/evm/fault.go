package evm

import "fmt"

// FaultKind classifies machine faults.
type FaultKind int

const (
	FaultNone         FaultKind = iota
	FaultIllegalInst            // illegal or truncated instruction (e.g. sanitized code)
	FaultExecPerm               // fetch from a non-executable page
	FaultReadPerm               // load from a non-readable page
	FaultWritePerm              // store to a non-writable page
	FaultBadAddress             // access outside any mapped region
	FaultDivideByZero           //
	FaultStep                   // step budget exhausted
	FaultBreak                  // BRK executed
	FaultIntrinsic              // intrinsic handler reported an error
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultIllegalInst:
		return "illegal instruction"
	case FaultExecPerm:
		return "execute permission violation"
	case FaultReadPerm:
		return "read permission violation"
	case FaultWritePerm:
		return "write permission violation"
	case FaultBadAddress:
		return "bad address"
	case FaultDivideByZero:
		return "divide by zero"
	case FaultStep:
		return "step budget exhausted"
	case FaultBreak:
		return "breakpoint"
	case FaultIntrinsic:
		return "intrinsic error"
	default:
		return "unknown fault"
	}
}

// Fault is a machine fault. It satisfies error.
type Fault struct {
	Kind FaultKind
	PC   uint64 // address of the faulting instruction
	Addr uint64 // faulting data address, if applicable
	Msg  string // optional detail
}

func (f *Fault) Error() string {
	s := fmt.Sprintf("evm fault: %s at pc=%#x", f.Kind, f.PC)
	if f.Addr != 0 {
		s += fmt.Sprintf(" addr=%#x", f.Addr)
	}
	if f.Msg != "" {
		s += ": " + f.Msg
	}
	return s
}

// Access describes the kind of memory access being performed.
type Access int

const (
	Read Access = iota
	Write
	Exec
)

func (a Access) String() string {
	switch a {
	case Read:
		return "read"
	case Write:
		return "write"
	case Exec:
		return "exec"
	}
	return "access?"
}
