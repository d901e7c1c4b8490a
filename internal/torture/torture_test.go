package torture

import (
	"testing"

	"rvnegtest/internal/compliance"
	"rvnegtest/internal/filter"
	"rvnegtest/internal/isa"
)

// TestAllInstructionsValid: the defining property of the positive-testing
// baseline — every emitted word decodes to a valid instruction of the
// target configuration.
func TestAllInstructionsValid(t *testing.T) {
	for _, cfg := range []isa.Config{isa.RV32I, isa.RV32IMC, isa.RV32GC} {
		g := New(7, cfg)
		for c := 0; c < 300; c++ {
			bs, err := g.TestCase(16)
			if err != nil {
				t.Fatal(err)
			}
			if len(bs)%4 != 0 {
				t.Fatalf("%v: unaligned bytestream length %d", cfg, len(bs))
			}
			for pc := 0; pc < len(bs); pc += 4 {
				w := uint32(bs[pc]) | uint32(bs[pc+1])<<8 | uint32(bs[pc+2])<<16 | uint32(bs[pc+3])<<24
				inst := isa.Ref.Decode32(w)
				if inst.Op == isa.OpIllegal {
					t.Fatalf("%v: illegal word %#08x at +%d", cfg, w, pc)
				}
				if !cfg.Has(inst.Info().Ext) {
					t.Fatalf("%v: out-of-config instruction %v", cfg, inst.Op)
				}
			}
		}
	}
}

// TestAllCasesPassFilter: baseline cases go through the same Phase B
// pipeline, so they must be filter-clean.
func TestAllCasesPassFilter(t *testing.T) {
	flt := &filter.Filter{}
	for _, cfg := range []isa.Config{isa.RV32I, isa.RV32GC} {
		g := New(11, cfg)
		for c := 0; c < 500; c++ {
			bs, err := g.TestCase(16)
			if err != nil {
				t.Fatal(err)
			}
			if res := flt.Check(bs); !res.Accepted {
				t.Fatalf("%v case %d rejected: %v (stream %x)", cfg, c, res, bs)
			}
		}
	}
}

func TestDeterministic(t *testing.T) {
	a, err := Suite(3, isa.RV32GC, 50, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Suite(3, isa.RV32GC, 50, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cases) != len(b.Cases) {
		t.Fatal("case counts differ")
	}
	for i := range a.Cases {
		if string(a.Cases[i]) != string(b.Cases[i]) {
			t.Fatalf("case %d differs", i)
		}
	}
}

// TestPositiveTestingMissesNegativeBugs is the E9 experiment at unit
// scale: the torture-style suite finds (almost) none of the seeded
// negative-testing defects — the compliance gap the paper's fuzzer closes.
func TestPositiveTestingMissesNegativeBugs(t *testing.T) {
	// Positive suites are per-extension (like the official compliance
	// suite's sub-suites), so each configuration runs a suite targeting
	// exactly that configuration — unlike the fuzzer's single suite,
	// which is valid for every sub-ISA because illegal instructions must
	// trap.
	total := 0
	for _, cfg := range []isa.Config{isa.RV32I, isa.RV32IMC, isa.RV32GC} {
		suite, err := Suite(5, cfg, 400, 16)
		if err != nil {
			t.Fatal(err)
		}
		r := compliance.DefaultRunner()
		r.Configs = []isa.Config{cfg}
		rep, err := r.Run(suite)
		if err != nil {
			t.Fatal(err)
		}
		for j := range rep.Sims {
			c := rep.Cells[0][j]
			total += c.Mismatches
			if c.Crashes > 0 {
				t.Errorf("%v/%s: positive suite crashed a simulator", cfg, rep.Sims[j])
			}
		}
	}
	// The decoder-oriented defects (loose masks, reserved encodings,
	// custom opcodes, malformed patterns) are untriggerable by valid
	// instructions. The only reachable defect class is GRIFT's SC.W
	// behaviour on failed store-conditionals, which well-formed LR/SC
	// pairs exercise only when the pair straddles a truncation; allow a
	// small residue but require the bulk of the table to be zero.
	if total > 5 {
		t.Errorf("positive suite found %d mismatches; expected (near) zero — the compliance gap", total)
	}
	t.Logf("torture-style suites: %d total mismatches across the whole table (the fuzzer finds thousands)", total)
}
