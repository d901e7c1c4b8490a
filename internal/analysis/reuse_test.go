package analysis

import (
	"reflect"
	"slices"
	"testing"

	"rvnegtest/internal/isa"
)

// reuseShapes are the filter's fuzz seed shapes (internal/filter's
// seedCorpus): folded branches, overlapping streams, compressed
// encodings, memory accesses, loops, straddles and trap-mode sites.
// A feasible loop through two branches is added, so that stale search
// colours from a longer stream would hide it.
func reuseShapes() [][]byte {
	return [][]byte{
		nil,
		stream(0xffffffff),
		stream(0x00000073), // ecall
		{0x01, 0x00},       // c.nop
		{0x02, 0x40},       // c.lwsp x0 (reserved)
		stream(
			enc(isa.Inst{Op: isa.OpADD, Rd: 31, Rs1: 2, Rs2: 3}),
			enc(isa.Inst{Op: isa.OpJAL, Rd: 2, Imm: 20}),
			enc(isa.Inst{Op: isa.OpWFI}),
			enc(isa.Inst{Op: isa.OpADD, Rd: 30, Rs1: 2, Rs2: 3}),
			enc(isa.Inst{Op: isa.OpBLT, Rs1: 30, Rs2: 31, Imm: 12}),
			0xffffffff,
			enc(isa.Inst{Op: isa.OpBEQ, Rs1: 1, Rs2: 2, Imm: -8}),
			enc(isa.Inst{Op: isa.OpLW, Rd: 5, Rs1: 30, Imm: -16}),
		), // the Fig. 2 program
		stream(
			enc(isa.Inst{Op: isa.OpADDI, Rd: 5, Rs1: 0, Imm: 0}),
			enc(isa.Inst{Op: isa.OpBNE, Rs1: 5, Rs2: 0, Imm: -4}),
			0xffffffff,
		), // statically infeasible loop
		stream(
			enc(isa.Inst{Op: isa.OpBEQ, Rs1: 1, Rs2: 2, Imm: 8}),
			enc(isa.Inst{Op: isa.OpBEQ, Rs1: 1, Rs2: 2, Imm: 8}),
			enc(isa.Inst{Op: isa.OpBEQ, Rs1: 1, Rs2: 2, Imm: 8}),
			0xffffffff,
		), // branch-dense
		stream(
			enc(isa.Inst{Op: isa.OpBEQ, Rs1: 0, Rs2: 0, Imm: 6}),
			0x8082ffff,
		), // overlapping instruction streams
		stream(
			enc(isa.Inst{Op: isa.OpBEQ, Rs1: 0, Rs2: 0, Imm: 10}),
			0x00000001,
			0xf3f3f3f3,
		), // straddling encoding behind a branch
		stream(
			enc(isa.Inst{Op: isa.OpLW, Rd: 5, Rs1: 30, Imm: -16}),
			enc(isa.Inst{Op: isa.OpSW, Rs1: 31, Rs2: 7, Imm: 2044}),
		), // clean memory accesses
		stream(
			enc(isa.Inst{Op: isa.OpEBREAK}),
			enc(isa.Inst{Op: isa.OpCSRRS, Rd: 9, Rs1: 0, CSR: 0x342}),
			0xffffffff,
			enc(isa.Inst{Op: isa.OpLW, Rd: 5, Rs1: 9, Imm: 3}),
		), // deliberate traps, CSR read, dirty/unaligned load
		stream(
			enc(isa.Inst{Op: isa.OpCSRRW, Rd: 0, Rs1: 15, CSR: 0x305}),
		), // mtvec write
		append([]byte{0x01, 0x00},
			stream(enc(isa.Inst{Op: isa.OpECALL}))...,
		), // compressed prefix: resume offsets interleave with fall-throughs
		stream(
			enc(isa.Inst{Op: isa.OpBEQ, Rs1: 1, Rs2: 2, Imm: 4}),
			enc(isa.Inst{Op: isa.OpBNE, Rs1: 5, Rs2: 0, Imm: -4}),
		), // feasible loop through two branches
	}
}

// branchStream is 32 compressed branches to the next halfword: 32 sites,
// all reachable, accepted with a saturated path count.
func branchStream(tb testing.TB) []byte {
	h, ok := isa.Compress(isa.Inst{Op: isa.OpBEQ, Rs1: 8, Imm: 2})
	if !ok {
		tb.Fatal("c.beqz x8, 2 does not compress")
	}
	var out []byte
	for len(out) < 64 {
		out = append(out, byte(h), byte(h>>8))
	}
	return out
}

// shapeStream is 64 bytes of the shapes laid end to end (reversed: in
// the opposite order); trap mode walks deep into it.
func shapeStream(reversed bool) []byte {
	shapes := reuseShapes()
	if reversed {
		slices.Reverse(shapes)
	}
	var out []byte
	for len(out) < 64 {
		for _, s := range shapes {
			out = append(out, s...)
		}
	}
	return out[:64]
}

// reuseInput encodes streams for FuzzAnalysisReuse: a control byte
// (count, modes), one length byte per stream, then the bytes.
func reuseInput(modes uint8, streams ...[]byte) []byte {
	data := []byte{byte(len(streams)-2) | modes<<2}
	for _, s := range streams {
		data = append(data, byte(len(s)))
	}
	for _, s := range streams {
		data = append(data, s...)
	}
	return data
}

// reuseStreams splits a fuzz input into 2–4 streams of 0–64 bytes.
// data[0] holds the count (bits 0–1) and each stream's mode (bit 2+i,
// set = trap). One length byte per stream follows; the lengths are laid
// out long, short, long, short (the longest first), so a reused
// Analysis shrinks and regrows between calls. The streams then take
// consecutive bytes of the rest, which repeats when it runs out.
func reuseStreams(data []byte) (streams [][]byte, trap []bool) {
	if len(data) == 0 {
		return nil, nil
	}
	k := 2 + min(int(data[0]&3), 2)
	lens := make([]int, k)
	for i := range lens {
		if 1+i < len(data) {
			lens[i] = int(data[1+i]) % 65
		}
	}
	slices.Sort(lens)
	slices.Reverse(lens)
	body := data[min(1+k, len(data)):]
	off := 0
	for i := 0; i < k; i++ {
		n := lens[i/2] // long slots take the largest lengths
		if i%2 == 1 {
			n = lens[k-1-i/2] // short slots the smallest
		}
		s := make([]byte, n)
		for j := range s {
			if len(body) > 0 {
				s[j] = body[(off+j)%len(body)]
			}
		}
		off += n
		streams = append(streams, s)
		trap = append(trap, data[0]>>(2+i)&1 == 1)
	}
	return streams, trap
}

// analysisView is everything a consumer can read from an Analysis.
type analysisView struct {
	N       int32
	Verdict Verdict
	Insts   []instView
	Probes  []probeView
}

// instView is one EachInst visit.
type instView struct {
	PC        int32
	Inst      isa.Inst
	Reachable bool
}

// probeView is what InstAt, Reachable and CleanAt report at PC, and the
// feasible successors the analysis recorded there.
type probeView struct {
	PC            int32
	Inst          isa.Inst
	OK, Reachable bool
	Clean         uint32
	Succs         []int32
}

func viewOf(a *Analysis) analysisView {
	v := analysisView{N: a.N, Verdict: a.Verdict}
	a.EachInst(func(pc int32, inst isa.Inst, reachable bool) {
		v.Insts = append(v.Insts, instView{pc, inst, reachable})
	})
	for pc := int32(-2); pc <= a.N+4; pc += 2 {
		inst, ok := a.InstAt(pc)
		v.Probes = append(v.Probes, probeView{pc, inst, ok, a.Reachable(pc), a.CleanAt(pc), succsAt(a, pc)})
	}
	return v
}

// FuzzAnalysisReuse feeds a sequence of streams through one reused
// Analysis and checks that each result reads exactly like a fresh
// analysis of the same stream: verdict, length, the EachInst
// sequence, and InstAt/Reachable/CleanAt and the feasible successors at
// every even offset from -2 to N+4.
func FuzzAnalysisReuse(f *testing.F) {
	branches, shapes, reversed := branchStream(f), shapeStream(false), shapeStream(true)
	for modes := range uint8(4) {
		// An empty stream after a 64-byte one.
		f.Add(reuseInput(modes, branches, nil))
		f.Add(reuseInput(modes, shapes, nil))
	}
	for _, s := range reuseShapes() {
		f.Add(reuseInput(0b010, branches, s, shapes))
		f.Add(reuseInput(0b1101, reversed, s[:len(s)/2], branches, s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var a Analysis
		streams, trap := reuseStreams(data)
		for i, s := range streams {
			a.Analyze(s, trap[i])
			got, want := viewOf(&a), viewOf(analyze(s, trap[i]))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("stream %d of %d (%x, trap=%v) after reuse:\n got %+v\nwant %+v",
					i, len(streams), s, trap[i], got, want)
			}
		}
	})
}
