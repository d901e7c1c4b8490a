package filter

import (
	"sync"
	"testing"

	"rvnegtest/internal/analysis"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/sim"
	"rvnegtest/internal/template"
)

// seedCorpus are bytestreams exercising the interesting filter shapes:
// folded branches, overlapping streams, compressed encodings, memory
// accesses, loops and straddles.
func seedCorpus(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(stream(0xffffffff))
	f.Add(stream(0x00000073)) // ecall
	f.Add([]byte{0x01, 0x00}) // c.nop
	f.Add([]byte{0x02, 0x40}) // c.lwsp x0 (reserved)
	f.Add(stream(
		enc(isa.Inst{Op: isa.OpADD, Rd: 31, Rs1: 2, Rs2: 3}),
		enc(isa.Inst{Op: isa.OpJAL, Rd: 2, Imm: 20}),
		enc(isa.Inst{Op: isa.OpWFI}),
		enc(isa.Inst{Op: isa.OpADD, Rd: 30, Rs1: 2, Rs2: 3}),
		enc(isa.Inst{Op: isa.OpBLT, Rs1: 30, Rs2: 31, Imm: 12}),
		0xffffffff,
		enc(isa.Inst{Op: isa.OpBEQ, Rs1: 1, Rs2: 2, Imm: -8}),
		enc(isa.Inst{Op: isa.OpLW, Rd: 5, Rs1: 30, Imm: -16}),
	)) // the Fig. 2 program
	f.Add(stream(
		enc(isa.Inst{Op: isa.OpADDI, Rd: 5, Rs1: 0, Imm: 0}),
		enc(isa.Inst{Op: isa.OpBNE, Rs1: 5, Rs2: 0, Imm: -4}),
		0xffffffff,
	)) // statically infeasible loop (fixpoint-only acceptance)
	f.Add(stream(
		enc(isa.Inst{Op: isa.OpBEQ, Rs1: 1, Rs2: 2, Imm: 8}),
		enc(isa.Inst{Op: isa.OpBEQ, Rs1: 1, Rs2: 2, Imm: 8}),
		enc(isa.Inst{Op: isa.OpBEQ, Rs1: 1, Rs2: 2, Imm: 8}),
		0xffffffff,
	)) // branch-dense
	f.Add(stream(
		enc(isa.Inst{Op: isa.OpBEQ, Rs1: 0, Rs2: 0, Imm: 6}),
		0x8082ffff,
	)) // overlapping instruction streams
	f.Add(stream(
		enc(isa.Inst{Op: isa.OpBEQ, Rs1: 0, Rs2: 0, Imm: 10}),
		0x00000001,
		0xf3f3f3f3,
	)) // straddling encoding behind a branch
	f.Add(stream(
		enc(isa.Inst{Op: isa.OpLW, Rd: 5, Rs1: 30, Imm: -16}),
		enc(isa.Inst{Op: isa.OpSW, Rs1: 31, Rs2: 7, Imm: 2044}),
	)) // clean memory accesses

	// Trap-mode shapes: both fuzz targets run every seed through both
	// families, so these also exercise the user-mode engines.
	f.Add(stream(
		enc(isa.Inst{Op: isa.OpEBREAK}),
		enc(isa.Inst{Op: isa.OpCSRRS, Rd: 9, Rs1: 0, CSR: 0x342}),
		0xffffffff,
		enc(isa.Inst{Op: isa.OpLW, Rd: 5, Rs1: 9, Imm: 3}),
	)) // deliberate traps, CSR read, dirty/unaligned load
	f.Add(stream(
		enc(isa.Inst{Op: isa.OpCSRRW, Rd: 0, Rs1: 15, CSR: 0x305}),
	)) // mtvec write: forbidden in both families
	f.Add(append([]byte{0x01, 0x00},
		stream(enc(isa.Inst{Op: isa.OpECALL}))...,
	)) // compressed prefix: resume offsets interleave with fall-throughs
}

// FuzzFilterDifferential checks the acceptance-superset invariant against
// the retired path-enumeration engine: anything Exhaustive accepts, the
// fixpoint engine must accept too (the fixpoint only ever prunes
// statically infeasible edges, so it cannot see violations Exhaustive
// missed). It also checks that the fixpoint engine never spends its
// (nonexistent) path budget, and that folding only ever shrinks the
// accepted path count (edges are removed, never added).
func FuzzFilterDifferential(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, bs []byte) {
		for _, trap := range []bool{false, true} {
			flt := &Filter{MaxLen: 64, Trap: trap}
			exh := &Exhaustive{MaxLen: 64, Trap: trap}
			fr := flt.Check(bs)
			er := exh.Check(bs)
			if fr.Reason == analysis.ReasonPathBudget {
				t.Fatalf("trap=%v: fixpoint engine reported a path budget drop on %x", trap, bs)
			}
			if er.Accepted && !fr.Accepted {
				t.Fatalf("trap=%v: superset violated on %x: exhaustive accepted, fixpoint dropped %v", trap, bs, fr)
			}
			if er.Accepted && fr.Accepted && fr.Paths > er.Paths {
				t.Fatalf("trap=%v: fixpoint counts more paths on %x: exhaustive %d, fixpoint %d", trap, bs, er.Paths, fr.Paths)
			}
			if er.Reason == analysis.ReasonTooLong && fr.Reason != analysis.ReasonTooLong {
				t.Fatalf("trap=%v: MaxLen verdicts diverge on %x: %v vs %v", trap, bs, er, fr)
			}
		}
	})
}

// termSims are shared across FuzzAcceptedTerminates iterations, one per
// suite family; the simulators are not concurrency-safe, so runs are
// serialized.
var (
	termSimOnce sync.Once
	termSims    [2]*sim.Simulator // indexed by family (user, trap)
	termSimErr  error
	termSimMu   sync.Mutex
)

// FuzzAcceptedTerminates checks the filter's semantic guarantee in both
// suite families: every accepted bytestream runs to completion on the
// reference simulator under the matching template — no timeouts (loops),
// no crashes. This is what makes filter acceptance safe for automated
// signature comparison.
func FuzzAcceptedTerminates(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, bs []byte) {
		termSimOnce.Do(func() {
			for i, fam := range []template.Family{template.FamilyUser, template.FamilyTrap} {
				termSims[i], termSimErr = sim.New(sim.Reference, template.PlatformFor(fam, isa.RV32GC))
				if termSimErr != nil {
					return
				}
			}
		})
		for i, trap := range []bool{false, true} {
			flt := &Filter{MaxLen: 64, Trap: trap}
			if !flt.Check(bs).Accepted {
				continue
			}
			if termSimErr != nil {
				t.Fatal(termSimErr)
			}
			termSimMu.Lock()
			out := termSims[i].Run(bs)
			termSimMu.Unlock()
			if out.TimedOut {
				t.Fatalf("trap=%v: accepted stream %x did not terminate", trap, bs)
			}
			if out.Crashed {
				t.Fatalf("trap=%v: accepted stream %x crashed the reference simulator: %s", trap, bs, out.CrashMsg)
			}
		}
	})
}
