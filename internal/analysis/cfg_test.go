package analysis

import (
	"slices"
	"testing"

	"rvnegtest/internal/isa"
)

// half appends a raw 16-bit encoding to a bytestream.
func half(bs []byte, h uint16) []byte {
	return append(bs, byte(h), byte(h>>8))
}

func TestMixedCompressedStream(t *testing.T) {
	// c.addi x5, 1 (2 bytes) ; addi x6, x0, 2 (4 bytes) ; illegal word.
	var bs []byte
	bs = half(bs, 0x0285) // c.addi x5, 1
	w := enc(isa.Inst{Op: isa.OpADDI, Rd: 6, Rs1: 0, Imm: 2})
	bs = append(bs, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	bs = append(bs, stream(0xffffffff)...)

	a := analyze(bs, false)
	if a.Verdict.Reason != ReasonNone || a.Verdict.Paths != 1 {
		t.Fatalf("mixed stream: %+v", a.Verdict)
	}
	// A straight line: sites at 0 (2B), 2 (4B) and 6 (4B), each feasible
	// successor the next site, and the illegal word an exit.
	wantSuccs(t, a, map[int32][]int32{0: {2}, 2: {6}, 6: {}})
	for _, pc := range []int32{0, 2, 6} {
		if _, ok := a.InstAt(pc); !ok {
			t.Errorf("no instruction site at %d", pc)
		}
	}
	if inst, _ := a.InstAt(0); inst.Size != 2 || inst.Op != isa.OpADDI {
		t.Errorf("site 0 = %+v, want 2-byte c.addi expansion", inst)
	}
	if inst, _ := a.InstAt(2); inst.Size != 4 {
		t.Errorf("site 2 not a 32-bit encoding: %+v", inst)
	}
}

func TestCompressedBranchSplitsBlocks(t *testing.T) {
	// c.bnez x8, +4 forks over a c.nop; both arms meet at the illegal word.
	var bs []byte
	bs = half(bs, 0xc011) // c.beqz x8, +4
	bs = half(bs, 0x0001) // c.nop
	bs = append(bs, stream(0xffffffff)...)

	a := analyze(bs, false)
	if a.Verdict.Reason != ReasonNone {
		t.Fatalf("compressed branch stream: %+v", a.Verdict)
	}
	if a.Verdict.Paths != 2 {
		t.Errorf("paths = %d, want 2", a.Verdict.Paths)
	}
	// The branch forks to the c.nop and past it; both arms meet at the
	// illegal word.
	wantSuccs(t, a, map[int32][]int32{0: {2, 4}, 2: {4}, 4: {}})
}

func TestJALBackEdgeLoop(t *testing.T) {
	// Forward work then an unconditional jump back to the start.
	bs := stream(
		enc(isa.Inst{Op: isa.OpADD, Rd: 1, Rs1: 1, Rs2: 2}),
		enc(isa.Inst{Op: isa.OpJAL, Rd: 0, Imm: -4}),
	)
	a := analyze(bs, false)
	if a.Verdict.Reason != ReasonLoop {
		t.Fatalf("JAL back edge not dropped: %+v", a.Verdict)
	}
	if a.Verdict.PC != 0 {
		t.Errorf("loop reported at %d, want head offset 0", a.Verdict.PC)
	}
	// Self-loop JAL.
	if a := analyze(stream(enc(isa.Inst{Op: isa.OpJAL, Imm: 0})), false); a.Verdict.Reason != ReasonLoop {
		t.Errorf("self JAL: %+v", a.Verdict)
	}
}

func TestBranchBackEdgeSplitsTargetBlock(t *testing.T) {
	// The backward branch targets the middle of the leading straight
	// line: the cycle through it must be detected at the revisited site.
	bs := stream(
		enc(isa.Inst{Op: isa.OpADD, Rd: 1, Rs1: 1, Rs2: 2}),   // 0
		enc(isa.Inst{Op: isa.OpADD, Rd: 3, Rs1: 3, Rs2: 4}),   // 4: back-edge target
		enc(isa.Inst{Op: isa.OpBNE, Rs1: 1, Rs2: 2, Imm: -4}), // 8
	)
	a := analyze(bs, false)
	if a.Verdict.Reason != ReasonLoop {
		t.Fatalf("branch back edge not dropped: %+v", a.Verdict)
	}
	if a.Verdict.PC != 4 {
		t.Errorf("loop reported at %d, want the revisited site 4", a.Verdict.PC)
	}
	wantSuccs(t, a, map[int32][]int32{0: {4}, 4: {8}, 8: {12, 4}})
}

func TestBackEdgeDirtiesEarlierLoad(t *testing.T) {
	// The load at 4 reads a clean x30 on the first pass. The branch at
	// 12 carries the dirtied x30 back to it: only the second pass sees
	// the load's dirty base, which comes before the loop in the verdict
	// order.
	bs := stream(
		enc(isa.Inst{Op: isa.OpADD, Rd: 1, Rs1: 1, Rs2: 2}),   //  0
		enc(isa.Inst{Op: isa.OpLW, Rd: 5, Rs1: 30, Imm: 0}),   //  4
		enc(isa.Inst{Op: isa.OpADD, Rd: 30, Rs1: 1, Rs2: 2}),  //  8: dirties x30
		enc(isa.Inst{Op: isa.OpBNE, Rs1: 1, Rs2: 2, Imm: -8}), // 12: back to 4
		0xffffffff, // 16
	)
	a := analyze(bs, false)
	want := Verdict{Reason: ReasonDirtyAddress, PC: 4, Op: isa.OpLW}
	if a.Verdict != want {
		t.Fatalf("verdict = %+v, want %+v", a.Verdict, want)
	}
	if m := a.CleanAt(4); m != 1<<31 {
		t.Errorf("CleanAt(4) = %#x, want x31 only (the join over the back edge)", m)
	}
	wantSuccs(t, a, map[int32][]int32{0: {4}, 4: {8}, 8: {12}, 12: {16, 4}, 16: {}})
}

func TestBranchIntoPaddedTail(t *testing.T) {
	// 6-byte stream padded to 8: the branch's fall arm reaches the c.nop
	// at 4 and then the zero-padded halfword at 6 (decodes illegal: exit);
	// the taken arm targets the padding directly.
	var bs []byte
	w := enc(isa.Inst{Op: isa.OpBEQ, Rs1: 1, Rs2: 2, Imm: 6})
	bs = append(bs, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	bs = half(bs, 0x0001) // c.nop at 4

	a := analyze(bs, false)
	if a.N != 8 {
		t.Fatalf("padded length = %d, want 8", a.N)
	}
	if a.Verdict.Reason != ReasonNone || a.Verdict.Paths != 2 {
		t.Fatalf("branch into padding: %+v", a.Verdict)
	}
	// The zero halfword at 6 is a discovered exit site.
	if inst, ok := a.InstAt(6); !ok || inst.Op != isa.OpIllegal {
		t.Errorf("padding site at 6 = %+v (ok=%v), want illegal exit", inst, ok)
	}
}

func TestStraddleViaBranchTarget(t *testing.T) {
	// Branch to offset 10, where a 32-bit low half (0xf3f3) starts at n-2:
	// the upper half would come from outside the bytestream.
	bs := stream(
		enc(isa.Inst{Op: isa.OpBEQ, Rs1: 0, Rs2: 0, Imm: 10}),
		0x00000001,
		0xf3f3f3f3,
	)
	a := analyze(bs, false)
	if a.Verdict.Reason != ReasonStraddle {
		t.Fatalf("straddle not dropped: %+v", a.Verdict)
	}
	if a.Verdict.PC != 10 {
		t.Errorf("straddle at %d, want 10", a.Verdict.PC)
	}
}

func TestUnreachableSitesNotDiscovered(t *testing.T) {
	// The Fig. 2 shape: the JAL at 4 skips offsets 8..15; no edge ever
	// targets them, so the CFG must not decode them at all.
	bs := stream(
		enc(isa.Inst{Op: isa.OpADD, Rd: 31, Rs1: 2, Rs2: 3}),    //  0
		enc(isa.Inst{Op: isa.OpJAL, Rd: 2, Imm: 20}),            //  4 -> 24
		enc(isa.Inst{Op: isa.OpWFI}),                            //  8: never decoded
		enc(isa.Inst{Op: isa.OpADD, Rd: 30, Rs1: 2, Rs2: 3}),    // 12: never decoded
		enc(isa.Inst{Op: isa.OpBLT, Rs1: 30, Rs2: 31, Imm: 12}), // 16 -> 28 / 20
		0xffffffff, // 20
		enc(isa.Inst{Op: isa.OpBEQ, Rs1: 1, Rs2: 2, Imm: -8}), // 24 -> 16 / 28
		enc(isa.Inst{Op: isa.OpLW, Rd: 5, Rs1: 30, Imm: -16}), // 28
	)
	a := analyze(bs, false)
	if a.Verdict.Reason != ReasonNone || a.Verdict.Paths != 3 {
		t.Fatalf("Fig. 2 program: %+v", a.Verdict)
	}
	for _, pc := range []int32{8, 12} {
		if _, ok := a.InstAt(pc); ok {
			t.Errorf("statically unreachable site %d was discovered", pc)
		}
		if a.Reachable(pc) {
			t.Errorf("site %d reported reachable", pc)
		}
	}
}

func TestOverlappingSitesAtHalfwordGranularity(t *testing.T) {
	// beq x0,x0,+6 jumps into the middle of the next word: the CFG keeps
	// two overlapping sites (4: aligned word, 6: its upper half).
	bs := stream(
		enc(isa.Inst{Op: isa.OpBEQ, Rs1: 0, Rs2: 0, Imm: 6}),
		0x8082ffff, // aligned: illegal word; halfword at 6 = 0x8082 = c.jr ra
	)
	a := analyze(bs, false)
	if a.Verdict.Reason != ReasonForbidden {
		t.Fatalf("overlapping forbidden stream: %+v", a.Verdict)
	}
	if a.Verdict.PC != 6 {
		t.Errorf("forbidden at %d, want the overlapping site 6", a.Verdict.PC)
	}
	if _, ok := a.InstAt(4); !ok {
		t.Error("aligned site at 4 missing")
	}
	if inst, ok := a.InstAt(6); !ok || inst.Op != isa.OpJALR {
		t.Errorf("overlapping site at 6 = %+v (ok=%v), want c.jr expansion", inst, ok)
	}
}

func TestBlocksSuccessorsFoldedBranch(t *testing.T) {
	// A folded always-taken branch must report a single feasible successor.
	bs := stream(
		enc(isa.Inst{Op: isa.OpBEQ, Rs1: 0, Rs2: 0, Imm: 8}), // always taken -> 8
		0xffffffff, // 4: statically dead
		0xffffffff, // 8
	)
	a := analyze(bs, false)
	if a.Verdict.Reason != ReasonNone || a.Verdict.Paths != 1 {
		t.Fatalf("folded branch: %+v", a.Verdict)
	}
	wantSuccs(t, a, map[int32][]int32{0: {8}, 8: {}})
	if a.Reachable(4) {
		t.Error("the untaken arm at 4 must be unreachable")
	}
}

// succsAt returns the feasible successors the analysis recorded for the
// site at pc, or nil when pc is not a reachable site.
func succsAt(a *Analysis, pc int32) []int32 {
	nd := a.g.at(pc)
	if nd == nil || !nd.in.reach {
		return nil
	}
	return append([]int32{}, nd.out[:nd.nout]...)
}

// wantSuccs checks that the reachable sites are exactly want's keys and
// that each has want's feasible successors, in order.
func wantSuccs(t *testing.T, a *Analysis, want map[int32][]int32) {
	t.Helper()
	for pc := int32(0); pc < a.N; pc += 2 {
		got, w := succsAt(a, pc), want[pc]
		_, reach := want[pc]
		if a.Reachable(pc) != reach || !slices.Equal(got, w) {
			t.Errorf("site %d: reachable %v, successors %v; want %v, %v", pc, a.Reachable(pc), got, reach, w)
		}
	}
}
