package sim

import (
	"testing"

	"rvnegtest/internal/coverage"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/template"
)

// runAllocs is what one hooked run allocates however many instructions
// it retires: the hart, the executor and the signature.
const runAllocs = 3

// TestRunHookedAllocsIndependentOfLength pins RunHooked's allocations to
// the per-run constant on both template families, with v0 and v3
// collectors and with predecode on and off: a 15-instruction input must
// allocate exactly what a 1-instruction input does, so nothing allocates
// per retired instruction.
func TestRunHookedAllocsIndependentOfLength(t *testing.T) {
	short := stream(enc(isa.Inst{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: 1}))
	long := stream(
		enc(isa.Inst{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: 1}),
		enc(isa.Inst{Op: isa.OpADD, Rd: 6, Rs1: 5, Rs2: 3}),
		enc(isa.Inst{Op: isa.OpSUB, Rd: 7, Rs1: 6, Rs2: 4}),
		enc(isa.Inst{Op: isa.OpXOR, Rd: 8, Rs1: 7, Rs2: 7}),
		enc(isa.Inst{Op: isa.OpSLLI, Rd: 9, Rs1: 1, Imm: 31}),
		enc(isa.Inst{Op: isa.OpLUI, Rd: 10, Imm: 0x12345000}),
		enc(isa.Inst{Op: isa.OpSLT, Rd: 11, Rs1: 2, Rs2: 3}),
		enc(isa.Inst{Op: isa.OpBEQ, Rs1: 0, Rs2: 0, Imm: 4}),
		enc(isa.Inst{Op: isa.OpMUL, Rd: 12, Rs1: 3, Rs2: 3}),
		enc(isa.Inst{Op: isa.OpORI, Rd: 13, Rs1: 4, Imm: -1}),
		enc(isa.Inst{Op: isa.OpSRAI, Rd: 14, Rs1: 4, Imm: 3}),
		enc(isa.Inst{Op: isa.OpBNE, Rs1: 1, Rs2: 1, Imm: 8}),
		enc(isa.Inst{Op: isa.OpANDI, Rd: 15, Rs1: 9, Imm: 0x7f}),
		enc(isa.Inst{Op: isa.OpSLTU, Rd: 16, Rs1: 0, Rs2: 2}),
		enc(isa.Inst{Op: isa.OpAND, Rd: 17, Rs1: 16, Rs2: 2}),
	)
	for _, fam := range []template.Family{template.FamilyUser, template.FamilyTrap} {
		s, err := New(Reference, template.PlatformFor(fam, isa.RV32GC))
		if err != nil {
			t.Fatal(err)
		}
		for _, cov := range []string{"v0", "v3"} {
			opts, _ := coverage.ByName(cov)
			col := coverage.NewCollector(opts)
			for _, pre := range []bool{true, false} {
				s.NoPredecode = !pre
				var insts [2]uint64
				for i, bs := range [][]byte{short, long} {
					allocs := testing.AllocsPerRun(20, func() {
						out := s.RunHooked(bs, col)
						if out.Crashed || out.TimedOut || out.Signature == nil {
							t.Fatalf("%v %s predecode=%v: run failed: %+v", fam, cov, pre, out)
						}
						insts[i] = out.Insts
						col.Map.DiscardRun()
					})
					if allocs != runAllocs {
						t.Errorf("%v %s predecode=%v: %d-word input: %v allocs per run, want %d",
							fam, cov, pre, len(bs)/4, allocs, runAllocs)
					}
				}
				if insts[1] < insts[0]+14 {
					t.Errorf("%v %s predecode=%v: long input retired %d insts, short %d",
						fam, cov, pre, insts[1], insts[0])
				}
			}
		}
	}
}
