package sim

import (
	"reflect"
	"testing"

	"rvnegtest/internal/exec"
	"rvnegtest/internal/hart"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/template"
)

// batchCases is a case mix covering the outcome classes: clean bodies,
// illegal encodings, deliberate traps, a decoder-crash pattern (Sail), a
// self-loop timeout, and an empty body.
func batchCases() [][]byte {
	return [][]byte{
		stream(enc(isa.Inst{Op: isa.OpADD, Rd: 5, Rs1: 1, Rs2: 2})),
		stream(
			enc(isa.Inst{Op: isa.OpADDI, Rd: 6, Rs1: 1, Imm: 17}),
			enc(isa.Inst{Op: isa.OpSLLI, Rd: 7, Rs1: 6, Imm: 3}),
			enc(isa.Inst{Op: isa.OpXOR, Rd: 8, Rs1: 7, Rs2: 6}),
		),
		stream(0xffffffff),
		stream(0x00000073), // ECALL
		{0x00, 0x84, 0, 0}, // sail decoder-crash pattern (compressed)
		stream(enc(isa.Inst{Op: isa.OpJAL, Rd: 0, Imm: 0})), // self-loop: timeout
		{},
		stream(
			enc(isa.Inst{Op: isa.OpLW, Rd: 5, Rs1: 30, Imm: -16}),
			enc(isa.Inst{Op: isa.OpSW, Rs1: 31, Rs2: 5, Imm: 32}),
		),
	}
}

func outcomesEqual(t *testing.T, label string, want, got []Outcome) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d outcomes", label, len(want), len(got))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("%s case %d:\nscalar %+v\nbatch  %+v", label, i, want[i], got[i])
		}
	}
}

// TestBatchMatchesScalar is the core lockstep-equivalence check: for
// every variant, configuration and suite family, a batch of N cases must
// return exactly the outcomes of N sequential scalar runs — including
// the crash, timeout and injection-failure classes — and the cumulative
// decode-cache counters must agree with the scalar total.
func TestBatchMatchesScalar(t *testing.T) {
	cases := batchCases()
	for _, v := range All {
		for _, cfg := range []isa.Config{isa.RV32I, isa.RV32IMC} {
			for _, fam := range []template.Family{template.FamilyUser, template.FamilyTrap} {
				p := template.PlatformFor(fam, cfg)
				label := v.Name + "/" + cfg.String() + "/" + fam.String()
				scalar, err := New(v, p)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want := make([]Outcome, len(cases))
				for i, bs := range cases {
					want[i] = runIsolated(scalar, bs)
				}
				wantStats := scalar.PredecodeStats()

				batcher, err := New(v, p)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				// Batch size 3 against 8 cases: exercises lane cycling.
				r, err := batcher.NewBatch(3)
				if err != nil {
					t.Fatalf("%s: NewBatch: %v", label, err)
				}
				got := r.RunHookedBatch(cases, nil)
				outcomesEqual(t, label, want, got)
				if gotStats := r.PredecodeStats(); gotStats != wantStats {
					t.Errorf("%s: cache stats diverged: scalar %+v batch %+v", label, wantStats, gotStats)
				}
				var laneSum exec.CacheStats
				for i := 0; i < 3; i++ {
					laneSum.Add(r.LanePredecodeStats(i))
				}
				if laneSum != r.PredecodeStats() {
					t.Errorf("%s: lane fold %+v != total %+v", label, laneSum, r.PredecodeStats())
				}
			}
		}
	}
}

// runIsolated is a scalar RunHooked with panic capture matching the
// batch lane semantics (RunHooked already recovers; this is just the
// plain call, named for symmetry).
func runIsolated(s *Simulator, bs []byte) Outcome { return s.RunHooked(bs, nil) }

// TestBatchMatchesScalarUnfused repeats the equivalence check with
// predecode disabled, so the classical path is covered by the same
// harness.
func TestBatchMatchesScalarUnfused(t *testing.T) {
	cases := batchCases()
	p := template.PlatformFor(template.FamilyUser, isa.RV32IMC)
	for _, v := range []*Variant{Reference, Sail} {
		scalar, err := New(v, p)
		if err != nil {
			t.Fatal(err)
		}
		scalar.NoPredecode = true
		want := make([]Outcome, len(cases))
		for i, bs := range cases {
			want[i] = scalar.RunHooked(bs, nil)
		}
		batcher, err := New(v, p)
		if err != nil {
			t.Fatal(err)
		}
		batcher.NoPredecode = true
		r, err := batcher.NewBatch(4)
		if err != nil {
			t.Fatal(err)
		}
		outcomesEqual(t, v.Name+"/nopredecode", want, r.RunHookedBatch(cases, nil))
		if st := r.PredecodeStats(); st != (exec.CacheStats{}) {
			t.Errorf("no-predecode batch reported cache stats %+v", st)
		}
	}
}

// TestBatchHookParity runs hooked batches against hooked scalar runs:
// each lane's coverage stream (instruction ops and edge IDs) must be
// identical to the scalar run of the same case.
func TestBatchHookParity(t *testing.T) {
	cases := batchCases()
	p := template.PlatformFor(template.FamilyTrap, isa.RV32IMC)
	scalar, err := New(Reference, p)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*recordHook, len(cases))
	for i, bs := range cases {
		want[i] = &recordHook{}
		scalar.RunHooked(bs, want[i])
	}
	batcher, err := New(Reference, p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := batcher.NewBatch(3)
	if err != nil {
		t.Fatal(err)
	}
	hooks := make([]exec.Hook, len(cases))
	got := make([]*recordHook, len(cases))
	for i := range cases {
		got[i] = &recordHook{}
		hooks[i] = got[i]
	}
	r.RunHookedBatch(cases, hooks)
	for i := range cases {
		if !reflect.DeepEqual(want[i].ops, got[i].ops) || !reflect.DeepEqual(want[i].edges, got[i].edges) {
			t.Errorf("case %d: hook streams diverged (scalar %d insts/%d edges, batch %d/%d)",
				i, len(want[i].ops), len(want[i].edges), len(got[i].ops), len(got[i].edges))
		}
	}
}

// recordHook records the per-instruction observation stream (the same
// call sites a coverage collector sees).
type recordHook struct {
	ops   []isa.Op
	edges []uint32
}

func (h *recordHook) OnInst(in *isa.Inst, _ *hart.Hart) { h.ops = append(h.ops, in.Op) }
func (h *recordHook) OnEdge(edge uint32)                { h.edges = append(h.edges, edge) }
