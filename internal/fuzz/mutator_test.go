package fuzz

import (
	"testing"

	"rvnegtest/internal/isa"
)

func TestPickCleanBase(t *testing.T) {
	m := newMutator(newRng(17))
	// Empty mask (or x0-only): fall back to the template registers.
	for i := 0; i < 100; i++ {
		if r := m.pickCleanBase(0); r != 30 && r != 31 {
			t.Fatalf("empty mask picked x%d", r)
		}
		if r := m.pickCleanBase(1); r != 30 && r != 31 {
			t.Fatalf("x0-only mask picked x%d", r)
		}
	}
	// Single-register mask: deterministic.
	if r := m.pickCleanBase(1 << 5); r != 5 {
		t.Errorf("mask{x5} picked x%d", r)
	}
	// Multi-register mask: always a member.
	mask := uint32(1<<7 | 1<<30 | 1<<31)
	seen := map[isa.Reg]bool{}
	for i := 0; i < 200; i++ {
		r := m.pickCleanBase(mask)
		if mask&(1<<r) == 0 {
			t.Fatalf("picked x%d outside mask %#x", r, mask)
		}
		seen[r] = true
	}
	if len(seen) != 3 {
		t.Errorf("only %d of 3 mask members ever picked", len(seen))
	}
}

func TestSteerRD(t *testing.T) {
	m := newMutator(newRng(23))
	addi30 := isa.MustEncode(isa.Inst{Op: isa.OpADDI, Rd: 30, Rs1: 1, Imm: 4})
	// rd collides with a live base: must be steered off it.
	for i := 0; i < 100; i++ {
		w := m.steerRD(addi30, 1<<30)
		inst := isa.Ref.Decode32(w)
		if inst.Op != isa.OpADDI || inst.Rs1 != 1 || inst.Imm != 4 {
			t.Fatalf("steering changed more than rd: %+v", inst)
		}
		if inst.Rd == 30 {
			t.Fatal("rd still collides with the avoid mask")
		}
	}
	// No collision: untouched.
	if w := m.steerRD(addi30, 1<<31); w != addi30 {
		t.Error("steering rewrote a non-colliding rd")
	}
	if w := m.steerRD(addi30, 0); w != addi30 {
		t.Error("steering rewrote with an empty avoid mask")
	}
	// Stores have no rd field: untouched even with a full avoid mask.
	sw := isa.MustEncode(isa.Inst{Op: isa.OpSW, Rs1: 30, Rs2: 7, Imm: 8})
	if w := m.steerRD(sw, ^uint32(0)); w != sw {
		t.Error("steering rewrote a store")
	}
	// Everything to avoid: rd falls back to x0.
	if inst := isa.Ref.Decode32(m.steerRD(addi30, ^uint32(0))); inst.Rd != 0 {
		t.Errorf("full avoid mask gave rd=x%d, want x0", inst.Rd)
	}
}

// TestInstructionAwareRs1FromCleanSet: on a base of zero words, where
// the analysis proves only x30 and x31 clean, every injected memory
// access uses one of them as its base, so the mutated stream's memory
// ops never reference a base the analysis knows nothing about.
func TestInstructionAwareRs1FromCleanSet(t *testing.T) {
	m := newMutator(newRng(29))
	base := make([]byte, 16) // zero words: illegal encodings, all sites clean x30/x31
	for i := 0; i < 500; i++ {
		out := m.instructionAware(base, nil, 64)
		for p := 0; p+4 <= len(out); p += 4 {
			w := uint32(out[p]) | uint32(out[p+1])<<8 | uint32(out[p+2])<<16 | uint32(out[p+3])<<24
			if w&3 != 3 {
				continue // compressed pair slot
			}
			inst := isa.Ref.Decode32(w)
			info := inst.Info()
			if info == nil || !info.Flags.Any(isa.FlagLoad|isa.FlagStore) {
				continue
			}
			if inst.Rs1 != 30 && inst.Rs1 != 31 {
				t.Fatalf("injected %v at %d uses base x%d; clean set was {x30,x31}", inst.Op, p, inst.Rs1)
			}
		}
	}
}
