package analysis

import (
	"encoding/json"
	"strings"
	"testing"

	"rvnegtest/internal/isa"
)

func enc(inst isa.Inst) uint32 { return isa.MustEncode(inst) }

func stream(words ...uint32) []byte {
	var out []byte
	for _, w := range words {
		out = append(out, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	return out
}

// bottom and join are the element-level specification of the lattice;
// regState.joinInto computes join on whole states.
var bottom = value{}

// join is the least upper bound of two lattice elements.
func join(a, b value) value {
	switch {
	case a.k == vBottom:
		return b
	case b.k == vBottom:
		return a
	case a.k == b.k && (a.k != vConst || a.c == b.c):
		return a
	default:
		return dirty
	}
}

// elem is the element a state assigns to r: Bottom for every register
// of an unreachable state.
func elem(s *regState, r isa.Reg) value {
	if !s.reach {
		return bottom
	}
	return s.get(r)
}

func TestJoinLatticeLaws(t *testing.T) {
	elems := []value{bottom, clean, dirty, constant(0), constant(1), constant(0xffffffff)}
	for _, a := range elems {
		if join(a, a) != a {
			t.Errorf("join not idempotent for %v", a)
		}
		if join(a, bottom) != a || join(bottom, a) != a {
			t.Errorf("bottom not neutral for %v", a)
		}
		if join(a, dirty) != dirty || join(dirty, a) != dirty {
			t.Errorf("dirty not absorbing for %v", a)
		}
		for _, b := range elems {
			if join(a, b) != join(b, a) {
				t.Errorf("join not commutative for %v, %v", a, b)
			}
		}
	}
	if got := join(constant(1), constant(2)); got != dirty {
		t.Errorf("join of distinct constants = %v, want dirty", got)
	}
	if got := join(clean, constant(1)); got != dirty {
		t.Errorf("join(clean, const) = %v, want dirty", got)
	}
}

// TestJoinIntoMatchesJoin checks joinInto against the element-level
// join on random pairs of states, unreachable ones included: every
// register of the result, the change flag, and the clean mask CleanAt
// reports.
func TestJoinIntoMatchesJoin(t *testing.T) {
	rnd := splitmix(7)
	pool := [...]uint32{0, 1, 0xffffffff} // few constants, so equal ones meet
	draw := func(s *regState, r isa.Reg) {
		switch rnd() % 3 {
		case 0:
			s.set(r, constant(pool[rnd()%uint64(len(pool))]))
		case 1:
			s.set(r, clean)
		default:
			s.set(r, dirty)
		}
	}
	for i := range 20000 {
		a := entryState()
		for r := isa.Reg(1); r < isa.NumRegs; r++ {
			draw(&a, r)
		}
		b := a
		if i%4 == 0 {
			// A near copy: joins that change nothing or one register.
			for range rnd() % 3 {
				draw(&b, isa.Reg(1+rnd()%31))
			}
		} else {
			for r := isa.Reg(1); r < isa.NumRegs; r++ {
				draw(&b, r)
			}
		}
		a.reach, b.reach = rnd()%8 != 0, rnd()%8 != 0
		got := a
		changed := got.joinInto(&b)
		diff := false
		for r := range isa.Reg(isa.NumRegs) {
			want := join(elem(&a, r), elem(&b, r))
			if e := elem(&got, r); e != want {
				t.Fatalf("pair %d: x%d = %+v, want join(%+v, %+v) = %+v", i, r, e, elem(&a, r), elem(&b, r), want)
			}
			diff = diff || want != elem(&a, r)
		}
		if changed != diff {
			t.Fatalf("pair %d: joinInto reported changed=%v, want %v", i, changed, diff)
		}
		for _, s := range []*regState{&a, &b, &got} {
			if !s.reach {
				continue
			}
			var m uint32
			for r := range isa.Reg(isa.NumRegs) {
				if s.get(r) == clean {
					m |= 1 << r
				}
			}
			if s.clean != m {
				t.Fatalf("pair %d: clean mask %#x, Clean registers %#x", i, s.clean, m)
			}
		}
	}
}

func TestEntryState(t *testing.T) {
	s := entryState()
	if s.get(0) != constant(0) {
		t.Error("x0 must read as constant 0")
	}
	if s.get(30) != clean || s.get(31) != clean {
		t.Error("x30/x31 must start clean")
	}
	if s.get(5) != dirty {
		t.Error("other registers must start dirty")
	}
	s.set(0, dirty)
	if s.get(0) != constant(0) {
		t.Error("writes to x0 must be discarded")
	}
}

func TestConstantFoldingChains(t *testing.T) {
	// lui x5, 0x1000; addi x5, x5, -1 -> x5 = 0xfff, verified via a branch
	// that must fold to its taken edge, skipping a forbidden instruction.
	bs := stream(
		enc(isa.Inst{Op: isa.OpLUI, Rd: 5, Imm: 0x1000}),
		enc(isa.Inst{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: -1}),
		enc(isa.Inst{Op: isa.OpBNE, Rs1: 5, Rs2: 0, Imm: 8}), // always taken
		enc(isa.Inst{Op: isa.OpWFI}),                         // statically dead
		0xffffffff,
	)
	a := Analyze(bs)
	if !a.Accepted() {
		t.Fatalf("folded-past-forbidden stream dropped: %+v", a.Verdict)
	}
	if a.Verdict.Paths != 1 {
		t.Errorf("paths = %d, want 1 (branch folds to one edge)", a.Verdict.Paths)
	}
	if a.Reachable(12) {
		t.Error("the WFI behind an always-taken branch must be unreachable")
	}
}

func TestInfeasibleLoopAccepted(t *testing.T) {
	// addi x5, x0, 0; bne x5, x0, -4: the backward branch can never be
	// taken, so there is no loop. The path-enumeration filter dropped
	// this; the fixpoint engine folds the branch away.
	bs := stream(
		enc(isa.Inst{Op: isa.OpADDI, Rd: 5, Rs1: 0, Imm: 0}),
		enc(isa.Inst{Op: isa.OpBNE, Rs1: 5, Rs2: 0, Imm: -4}),
		0xffffffff,
	)
	a := Analyze(bs)
	if !a.Accepted() {
		t.Fatalf("statically infeasible loop dropped: %+v", a.Verdict)
	}
}

func TestInfeasibleOutOfBoundsAccepted(t *testing.T) {
	// beq x5, x0, +4096 with x5 == 1: the wild target is statically dead.
	bs := stream(
		enc(isa.Inst{Op: isa.OpADDI, Rd: 5, Rs1: 0, Imm: 1}),
		enc(isa.Inst{Op: isa.OpBEQ, Rs1: 5, Rs2: 0, Imm: 4000}),
		0xffffffff,
	)
	a := Analyze(bs)
	if !a.Accepted() {
		t.Fatalf("statically dead out-of-bounds edge dropped: %+v", a.Verdict)
	}
}

func TestFeasibleLoopStillDropped(t *testing.T) {
	// beq x0, x0, -4 after one instruction: always taken, genuine loop.
	bs := stream(
		enc(isa.Inst{Op: isa.OpADDI, Rd: 1, Rs1: 1, Imm: 1}),
		enc(isa.Inst{Op: isa.OpBEQ, Rs1: 0, Rs2: 0, Imm: -4}),
	)
	a := Analyze(bs)
	if a.Accepted() || a.Verdict.Reason != ReasonLoop {
		t.Fatalf("feasible loop not dropped: %+v", a.Verdict)
	}
}

func TestMergePointDirtyJoin(t *testing.T) {
	// Diamond: one arm dirties x30, the other leaves it clean; the load
	// after the merge must see the join (dirty) and be dropped.
	bs := stream(
		enc(isa.Inst{Op: isa.OpBLT, Rs1: 1, Rs2: 2, Imm: 8}), //  0: fork
		enc(isa.Inst{Op: isa.OpADD, Rd: 30, Rs1: 1, Rs2: 2}), //  4: dirties x30
		enc(isa.Inst{Op: isa.OpLW, Rd: 5, Rs1: 30, Imm: 0}),  //  8: merge point
	)
	a := Analyze(bs)
	if a.Accepted() || a.Verdict.Reason != ReasonDirtyAddress {
		t.Fatalf("merge-point dirty join missed: %+v", a.Verdict)
	}
	if a.Verdict.PC != 8 {
		t.Errorf("violation PC = %d, want 8", a.Verdict.PC)
	}

	// Same diamond with the write to a different register: x30 stays
	// clean on both arms, so the joined state accepts the load.
	ok := stream(
		enc(isa.Inst{Op: isa.OpBLT, Rs1: 1, Rs2: 2, Imm: 8}),
		enc(isa.Inst{Op: isa.OpADD, Rd: 7, Rs1: 1, Rs2: 2}),
		enc(isa.Inst{Op: isa.OpLW, Rd: 5, Rs1: 30, Imm: 0}),
	)
	if b := Analyze(ok); !b.Accepted() {
		t.Fatalf("clean merge dropped: %+v", b.Verdict)
	}
}

func TestBranchDenseLinearCost(t *testing.T) {
	// 30 consecutive forks would be 2^30 paths for the enumeration
	// engine; the fixpoint decides it in one pass per block.
	var words []uint32
	for i := 0; i < 30; i++ {
		words = append(words, enc(isa.Inst{Op: isa.OpBEQ, Rs1: 1, Rs2: 2, Imm: 8}))
	}
	words = append(words, 0xffffffff)
	a := Analyze(stream(words...))
	if !a.Accepted() {
		t.Fatalf("branch-dense stream dropped: %+v", a.Verdict)
	}
	if a.Verdict.Paths < 1<<20 {
		t.Errorf("paths = %d, want an exponential count (all forks live)", a.Verdict.Paths)
	}
}

func TestPathsSaturate(t *testing.T) {
	// 60 forks exceed the saturation cap without exploding the analysis.
	var words []uint32
	for i := 0; i < 60; i++ {
		words = append(words, enc(isa.Inst{Op: isa.OpBEQ, Rs1: 1, Rs2: 2, Imm: 8}))
	}
	words = append(words, 0xffffffff)
	a := Analyze(stream(words...))
	if !a.Accepted() || a.Verdict.Paths != maxPaths {
		t.Fatalf("got %+v, want acceptance with saturated path count", a.Verdict)
	}
}

func TestEmptyAndTinyStreams(t *testing.T) {
	if a := Analyze(nil); !a.Accepted() || a.Verdict.Paths != 1 {
		t.Errorf("empty stream: %+v", a.Verdict)
	}
	if a := Analyze([]byte{0x01, 0x00}); !a.Accepted() {
		t.Errorf("single c.nop: %+v", a.Verdict)
	}
}

func TestCleanAtAndEachInst(t *testing.T) {
	bs := stream(
		enc(isa.Inst{Op: isa.OpADD, Rd: 31, Rs1: 1, Rs2: 2}), // dirties x31
		enc(isa.Inst{Op: isa.OpLW, Rd: 5, Rs1: 30, Imm: 0}),
	)
	a := Analyze(bs)
	if !a.Accepted() {
		t.Fatalf("dropped: %+v", a.Verdict)
	}
	if m := a.CleanAt(0); m != 1<<30|1<<31 {
		t.Errorf("CleanAt(0) = %#x, want x30|x31", m)
	}
	if m := a.CleanAt(4); m != 1<<30 {
		t.Errorf("CleanAt(4) = %#x, want x30 only", m)
	}
	var pcs []int32
	a.EachInst(func(pc int32, inst isa.Inst, reachable bool) {
		pcs = append(pcs, pc)
		if !reachable {
			t.Errorf("straight-line inst at %d reported unreachable", pc)
		}
	})
	if len(pcs) != 2 || pcs[0] != 0 || pcs[1] != 4 {
		t.Errorf("EachInst visited %v, want [0 4]", pcs)
	}
}

func TestReasonStrings(t *testing.T) {
	want := map[Reason]string{
		ReasonNone:         "accepted",
		ReasonForbidden:    "forbidden instruction",
		ReasonLoop:         "potential loop",
		ReasonOutOfBounds:  "control flow out of bounds",
		ReasonDirtyAddress: "dirty address register",
		ReasonUnalignedImm: "unaligned immediate",
		ReasonStraddle:     "straddling encoding",
		ReasonPathBudget:   "path budget exhausted",
		ReasonTooLong:      "bytestream too long",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), s)
		}
	}
	if Reason(200).String() != "unknown" {
		t.Error("out-of-range reason must stringify as unknown")
	}
}

func TestStatsCounters(t *testing.T) {
	var s Stats
	if s.AcceptanceRate() != 0 {
		t.Error("empty stats must report 0 acceptance")
	}
	s.Record(ReasonNone)
	s.Record(ReasonNone)
	s.Record(ReasonLoop)
	s.Record(ReasonForbidden)
	if s.Total() != 4 || s.Accepted() != 2 || s.Dropped() != 2 {
		t.Fatalf("counters wrong: %+v", s)
	}
	if s.AcceptanceRate() != 0.5 {
		t.Errorf("rate = %v, want 0.5", s.AcceptanceRate())
	}
	var o Stats
	o.Record(ReasonLoop)
	s.Merge(o)
	if s.Counts[ReasonLoop] != 2 || s.Total() != 5 {
		t.Fatalf("merge wrong: %+v", s)
	}
	out := s.String()
	for _, frag := range []string{"potential loop", "forbidden instruction", "accepted"} {
		if !strings.Contains(out, frag) {
			t.Errorf("histogram missing %q:\n%s", frag, out)
		}
	}
}

func TestStatsJSON(t *testing.T) {
	var s Stats
	s.Record(ReasonNone)
	s.Record(ReasonDirtyAddress)
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Checked        uint64            `json:"checked"`
		Accepted       uint64            `json:"accepted"`
		AcceptanceRate float64           `json:"acceptance_rate"`
		Dropped        map[string]uint64 `json:"dropped"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Checked != 2 || got.Accepted != 1 || got.Dropped["dirty address register"] != 1 {
		t.Fatalf("JSON round-trip wrong: %+v", got)
	}
}
