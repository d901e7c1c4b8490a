package sim

import (
	"testing"

	"rvnegtest/internal/coverage"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/template"
)

// TestRunHookedAllocsIndependentOfLength pins the allocations of Run,
// RunInto and RunHooked on both template families however many
// instructions a run retires. The hart and executor belong to the
// simulator and are reused across runs, so an unhooked run allocates
// only its signature, a RunInto that has a buffer for it nothing, and a
// run under a v0 or v3 collector, which builds none, nothing either. A
// 15-instruction input must allocate exactly what a 1-instruction input
// does, so nothing allocates per retired instruction. On the trap
// template, inputs that take a load, a store and a fetch access fault,
// and one that reads a CSR that does not exist, must allocate no more: a
// fault is a trap, not an error value.
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
	// x5 points past the end of memory; x7 at the trap counter's page.
	farAway := enc(isa.Inst{Op: isa.OpLUI, Rd: 5, Imm: 0x10000000})
	trapCounter := template.DefaultLayout.TrapSigAddr
	faults := [][]byte{
		stream(farAway, enc(isa.Inst{Op: isa.OpLW, Rd: 6, Rs1: 5})),
		stream(farAway, enc(isa.Inst{Op: isa.OpSW, Rs1: 5, Rs2: 6})),
		// Jump to the last word of the address space once: the fault
		// resumes at address 0, and the rerun finds the counter set.
		stream(
			enc(isa.Inst{Op: isa.OpLUI, Rd: 7, Imm: int32(trapCounter+0x800) &^ 0xfff}),
			enc(isa.Inst{Op: isa.OpLW, Rd: 6, Rs1: 7, Imm: int32(trapCounter) - int32(trapCounter+0x800)&^0xfff}),
			enc(isa.Inst{Op: isa.OpBNE, Rs1: 6, Imm: 8}),
			enc(isa.Inst{Op: isa.OpJALR, Imm: -4}),
		),
		stream(enc(isa.Inst{Op: isa.OpCSRRS, Rd: 5, CSR: 0x7c0})),
	}
	for _, fam := range []template.Family{template.FamilyUser, template.FamilyTrap} {
		s, err := New(Reference, template.PlatformFor(fam, isa.RV32GC))
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]uint32, s.Platform.SigWords())
		for _, cov := range []string{"none", "into", "v0", "v3"} {
			run, runAllocs, signed := s.Run, 1.0, true
			if cov == "into" {
				run = func(bs []byte) Outcome { return s.RunInto(bs, buf) }
				runAllocs = 0
			}
			if opts, ok := coverage.ByName(cov); ok {
				col := coverage.NewCollector(opts)
				run = func(bs []byte) Outcome {
					out := s.RunHooked(bs, col)
					col.Map.DiscardRun()
					return out
				}
				runAllocs, signed = 0, false
			}
			var insts [2]uint64
			for i, bs := range [][]byte{short, long} {
				allocs := testing.AllocsPerRun(20, func() {
					out := run(bs)
					if out.Crashed || out.TimedOut || (out.Signature != nil) != signed {
						t.Fatalf("%v %s: run failed: %+v", fam, cov, out)
					}
					insts[i] = out.Insts
				})
				if allocs != runAllocs {
					t.Errorf("%v %s: %d-word input: %v allocs per run, want %v",
						fam, cov, len(bs)/4, allocs, runAllocs)
				}
			}
			if insts[1] < insts[0]+14 {
				t.Errorf("%v %s: long input retired %d insts, short %d",
					fam, cov, insts[1], insts[0])
			}
			if fam != template.FamilyTrap {
				continue
			}
			for i, bs := range faults {
				allocs := testing.AllocsPerRun(20, func() {
					out := run(bs)
					if out.Crashed || out.TimedOut || (out.Signature != nil) != signed || out.Traps != 1 {
						t.Fatalf("%v %s: fault input %d: %+v, want one trap", fam, cov, i, out)
					}
				})
				if allocs != runAllocs {
					t.Errorf("%v %s: fault input %d: %v allocs per run, want %v",
						fam, cov, i, allocs, runAllocs)
				}
			}
		}
	}
}
