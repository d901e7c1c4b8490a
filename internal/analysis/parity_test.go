package analysis

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"rvnegtest/internal/isa"
)

// parityStreams is the size of TestAnalysisParity's corpus.
const parityStreams = 60000

// parityDigest is the FNV-64a digest TestAnalysisParity expects.
const parityDigest uint64 = 0x06810a5164448927

// TestAnalysisParity pins what the engine computes on a fixed corpus:
// parityStreams seeded streams of 0–64 bytes, each analysed in both
// modes through one reused Analysis, hashed over the verdict, N, and
// InstAt/Reachable/CleanAt at every even offset from -2 to N+4.
//
// Analysis results decide which inputs reach the simulators and how the
// mutator builds new ones, so they decide corpora. A change meant to
// alter the analysis's semantics must update parityDigest together with
// a golden re-baseline of the benchmark; a change meant to keep them
// (a faster kernel, a new data layout) must leave this test passing
// as it is.
func TestAnalysisParity(t *testing.T) {
	rnd := splitmix(0x5eed)
	h := fnv.New64a()
	var buf []byte
	var a Analysis
	for range parityStreams {
		s := parityStream(rnd)
		for _, trap := range []bool{false, true} {
			a.Analyze(s, trap)
			buf = buf[:0]
			v := a.Verdict
			buf = append(buf, byte(v.Reason), byte(v.Op), byte(v.Op>>8))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v.PC))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Paths))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(a.N))
			for pc := int32(-2); pc <= a.N+4; pc += 2 {
				inst, ok := a.InstAt(pc)
				buf = appendInst(buf, inst)
				buf = append(buf, b2b(ok), b2b(a.Reachable(pc)))
				buf = binary.LittleEndian.AppendUint32(buf, a.CleanAt(pc))
			}
			h.Write(buf)
		}
	}
	if got := h.Sum64(); got != parityDigest {
		t.Fatalf("analysis digest over %d streams = %#016x, want %#016x", parityStreams, got, parityDigest)
	}
}

func b2b(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// appendInst appends every field of a decoded instruction.
func appendInst(buf []byte, in isa.Inst) []byte {
	buf = append(buf, byte(in.Op), byte(in.Op>>8), byte(in.Rd), byte(in.Rs1), byte(in.Rs2), byte(in.Rs3),
		in.RM, in.Size, byte(in.COp))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(in.Imm))
	buf = binary.LittleEndian.AppendUint16(buf, in.CSR)
	return binary.LittleEndian.AppendUint32(buf, in.Raw)
}

// parityStream draws one stream of 0–64 bytes: random bytes, words
// encoded from isa.Instructions, compressed halves, the filter's seed
// shapes, and small constants and branches on them, so that constants
// meet at merge points and decide later branches; laid end to end and
// cut to the drawn length.
func parityStream(rnd func() uint64) []byte {
	n := int(rnd() % 65)
	shapes := reuseShapes()
	reg := func() isa.Reg { return isa.Reg(parityRegs[rnd()%4]) } // x0, x5, x6, x7
	var s []byte
	for len(s) < n {
		r := rnd()
		switch r % 10 {
		case 0:
			for range 1 + r>>8%4 {
				s = append(s, byte(rnd()))
			}
		case 1:
			h := uint16(rnd())
			if h&3 == 3 {
				h &^= 1 // keep it compressed
			}
			s = binary.LittleEndian.AppendUint16(s, h)
		case 2:
			s = append(s, shapes[r>>8%uint64(len(shapes))]...)
		case 3:
			s = binary.LittleEndian.AppendUint32(s, enc(isa.Inst{Op: isa.OpADDI, Rd: reg(), Imm: int32(r >> 8 % 3)}))
		case 4:
			op := []isa.Op{isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGEU}[r>>8%4]
			off := 2*int32(r>>16%12) - 4
			s = binary.LittleEndian.AppendUint32(s, enc(isa.Inst{Op: op, Rs1: reg(), Rs2: reg(), Imm: off}))
		default:
			s = binary.LittleEndian.AppendUint32(s, parityWord(rnd))
		}
	}
	return s[:n]
}

// parityRegs is the register pool parityWord draws from, so constants
// meet at joins, branches fold and memory accesses use clean bases.
var parityRegs = [...]uint32{0, 5, 6, 7, 30, 31}

// parityWord encodes a random instruction of isa.Instructions with
// register fields mostly from parityRegs, branch and jump offsets within
// a few words, and memory accesses mostly based on x30/x31 with small
// offsets.
func parityWord(rnd func() uint64) uint32 {
	info := &isa.Instructions[rnd()%uint64(len(isa.Instructions))]
	w := info.Match | uint32(rnd())&^info.Mask
	field := func(shift uint, v uint32) {
		m := uint32(0x1f) << shift &^ info.Mask
		w = w&^m | v<<shift&m
	}
	for _, shift := range []uint{7, 15, 20} {
		if r := rnd(); r%4 != 0 {
			field(shift, parityRegs[r>>8%uint64(len(parityRegs))])
		}
	}
	off := int32(rnd()%24) - 8 // branch and jump offsets 2*off, access offsets off*size
	switch info.Fmt {
	case isa.FmtB:
		w = w&^isa.PutImmB(-2) | isa.PutImmB(2*off)
	case isa.FmtJ:
		w = w&^isa.PutImmJ(-2) | isa.PutImmJ(2*off)
	}
	if info.Flags.Any(isa.FlagLoad|isa.FlagStore) && rnd()%4 != 0 {
		field(15, 30+uint32(rnd()%2))
		imm := off * int32(max(info.MemSize, 1))
		if rnd()%4 == 0 {
			imm++ // unaligned
		}
		switch info.Fmt {
		case isa.FmtI:
			w = w&^isa.PutImmI(-1) | isa.PutImmI(imm)
		case isa.FmtS:
			w = w&^isa.PutImmS(-1) | isa.PutImmS(imm)
		}
	}
	return w
}

// splitmix returns a deterministic 64-bit sequence (SplitMix64).
func splitmix(seed uint64) func() uint64 {
	return func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
}
