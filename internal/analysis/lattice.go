package analysis

import (
	"math/bits"

	"rvnegtest/internal/isa"
)

// The abstract domain is a flat lattice per integer register:
//
//	        Dirty            (any value; top)
//	      /   |    \
//	Clean  Const(a) Const(b) ...
//	      \   |    /
//	        Bottom           (no incoming path yet)
//
// Clean means "still holds the data-window address the template loaded
// into it" — the only value a memory-access base register may carry
// (section IV-B/C of the paper). Const(c) means "provably holds the
// 32-bit constant c on every feasible path", which is what lets the
// engine fold statically decided branches. Everything else is Dirty.
// Writes never produce Clean: a computed value is not a guaranteed
// window address even when it happens to equal one.

type vkind uint8

const (
	vBottom vkind = iota
	vConst
	vClean
	vDirty
)

// value is one lattice element.
type value struct {
	k vkind
	c uint32 // constant payload, meaningful when k == vConst
}

var (
	dirty = value{k: vDirty}
	clean = value{k: vClean}
)

func constant(c uint32) value { return value{k: vConst, c: c} }

// regState is the abstract machine state at a program point. A state
// with reach == false is the bottom element of the state lattice (the
// program point has no feasible incoming path yet) and its other fields
// mean nothing. In a reachable state bit r of clean means x_r is Clean,
// bit r of known means x_r is Const(c[r]), and neither bit means Dirty;
// the masks are disjoint and x0 is pinned to Const 0. No register of a
// reachable state is Bottom: entryState sets every register and
// transfers write only Const or Dirty, so two masks cover the three
// remaining elements.
type regState struct {
	reach        bool
	clean, known uint32
	c            [32]uint32
}

// entryState is the abstract state at bytestream offset 0: the template
// initializes x30/x31 with the data-window address (clean) and x0 is
// architecturally zero; every other register holds template-dependent
// data (dirty).
func entryState() regState {
	return regState{reach: true, known: 1, clean: 1<<30 | 1<<31}
}

// get reads a register's abstract value in a reachable state (x0 always
// reads Const 0).
func (s *regState) get(r isa.Reg) value {
	m := uint32(1) << r
	switch {
	case s.known&m != 0:
		return constant(s.c[r])
	case s.clean&m != 0:
		return clean
	}
	return dirty
}

// set writes a register's abstract value (writes to x0 are discarded).
func (s *regState) set(r isa.Reg, v value) {
	if r == 0 {
		return
	}
	m := uint32(1) << r
	s.clean &^= m
	s.known &^= m
	switch v.k {
	case vConst:
		s.known |= m
		s.c[r] = v.c
	case vClean:
		s.clean |= m
	}
}

// joinInto merges o into s, reporting whether s changed (the fixpoint's
// monotone update at CFG merge points). Per register it is the flat
// join: a register stays Clean or Const only where both sides agree.
func (s *regState) joinInto(o *regState) bool {
	if !o.reach {
		return false
	}
	if !s.reach {
		*s = *o
		return true
	}
	clean, known := s.clean&o.clean, s.known&o.known
	for k := known &^ 1; k != 0; k &= k - 1 {
		if r := bits.TrailingZeros32(k); s.c[r] != o.c[r] {
			known &^= 1 << r
		}
	}
	changed := clean != s.clean || known != s.known
	s.clean, s.known = clean, known
	return changed
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// foldALU returns the abstract result of an RD-writing instruction given
// the pre-state. It folds exactly the RV32I computational subset whose
// semantics are total and platform-independent, mirroring the executor's
// concrete semantics bit for bit; every other writer produces Dirty.
// Loads produce Dirty even from a clean base (the loaded value is window
// data, not a guaranteed address), and AUIPC/JAL produce Dirty because
// they materialize layout-dependent absolute addresses.
func foldALU(inst isa.Inst, s *regState) value {
	imm := uint32(inst.Imm)
	switch inst.Op {
	case isa.OpLUI:
		return constant(imm)
	case isa.OpADDI, isa.OpSLTI, isa.OpSLTIU, isa.OpXORI, isa.OpORI, isa.OpANDI,
		isa.OpSLLI, isa.OpSRLI, isa.OpSRAI:
		a := s.get(inst.Rs1)
		if a.k != vConst {
			return dirty
		}
		switch inst.Op {
		case isa.OpADDI:
			return constant(a.c + imm)
		case isa.OpSLTI:
			return constant(b2u(int32(a.c) < inst.Imm))
		case isa.OpSLTIU:
			return constant(b2u(a.c < imm))
		case isa.OpXORI:
			return constant(a.c ^ imm)
		case isa.OpORI:
			return constant(a.c | imm)
		case isa.OpANDI:
			return constant(a.c & imm)
		case isa.OpSLLI:
			return constant(a.c << imm)
		case isa.OpSRLI:
			return constant(a.c >> imm)
		default: // OpSRAI
			return constant(uint32(int32(a.c) >> imm))
		}
	case isa.OpADD, isa.OpSUB, isa.OpSLL, isa.OpSLT, isa.OpSLTU, isa.OpXOR,
		isa.OpSRL, isa.OpSRA, isa.OpOR, isa.OpAND:
		a, b := s.get(inst.Rs1), s.get(inst.Rs2)
		if a.k != vConst || b.k != vConst {
			return dirty
		}
		switch inst.Op {
		case isa.OpADD:
			return constant(a.c + b.c)
		case isa.OpSUB:
			return constant(a.c - b.c)
		case isa.OpSLL:
			return constant(a.c << (b.c & 31))
		case isa.OpSLT:
			return constant(b2u(int32(a.c) < int32(b.c)))
		case isa.OpSLTU:
			return constant(b2u(a.c < b.c))
		case isa.OpXOR:
			return constant(a.c ^ b.c)
		case isa.OpSRL:
			return constant(a.c >> (b.c & 31))
		case isa.OpSRA:
			return constant(uint32(int32(a.c) >> (b.c & 31)))
		default: // OpOR, OpAND
			if inst.Op == isa.OpOR {
				return constant(a.c | b.c)
			}
			return constant(a.c & b.c)
		}
	}
	return dirty
}

// branchOutcome evaluates a conditional branch against the pre-state.
// When both operands are known constants the branch folds: exactly one
// edge is feasible and the other is statically dead. Otherwise both edges
// stay feasible (folded == false).
func branchOutcome(inst isa.Inst, s *regState) (taken, folded bool) {
	a, b := s.get(inst.Rs1), s.get(inst.Rs2)
	if a.k != vConst || b.k != vConst {
		return false, false
	}
	switch inst.Op {
	case isa.OpBEQ:
		return a.c == b.c, true
	case isa.OpBNE:
		return a.c != b.c, true
	case isa.OpBLT:
		return int32(a.c) < int32(b.c), true
	case isa.OpBGE:
		return int32(a.c) >= int32(b.c), true
	case isa.OpBLTU:
		return a.c < b.c, true
	case isa.OpBGEU:
		return a.c >= b.c, true
	}
	return false, false
}

// transfer applies one non-branch instruction's effect to the state in
// place. Branches have no state effect; JAL and every other RD-writer go
// through here.
func transfer(inst isa.Inst, s *regState) {
	info := inst.Info()
	if info == nil {
		return
	}
	if info.Flags.Is(isa.FlagWritesRD) {
		if inst.Op == isa.OpJAL {
			// The link register receives an absolute code address
			// (layout-dependent).
			s.set(inst.Rd, dirty)
			return
		}
		s.set(inst.Rd, foldALU(inst, s))
	}
}
