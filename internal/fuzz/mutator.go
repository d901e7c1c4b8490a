package fuzz

import (
	"math/bits"
	"math/rand"

	"rvnegtest/internal/analysis"
	"rvnegtest/internal/isa"
)

// mutator implements both the generic byte-level mutations (the libFuzzer
// built-ins: flip bits, change/insert/erase/shuffle bytes, splice) and the
// custom instruction-aware mutator of section IV-D: it walks the
// bytestream word by word injecting valid opcode patterns while leaving
// the remaining fields random (Fig. 3), with the operand constraints that
// keep the result filter-acceptable (loads/stores based on clean address
// registers with aligned immediates; small branch/jump offsets).
//
// Injection sites are picked against the static analysis of the base
// input: memory accesses use a register the analysis proves clean at that
// offset, and injected writes avoid clobbering registers that a later
// instruction still needs as a clean memory base — so mutation tends to
// preserve filter acceptance instead of fighting it.
type mutator struct {
	rng *rand.Rand
	// injectable is the weighted op pool for instruction injection.
	injectable []*isa.OpInfo

	// buf is the buffer both mutators build their candidate in: the
	// slice a call returns is only valid until the next call. The fuzzer
	// sets it to nil when a reaped run may still read the last candidate.
	buf []byte

	// an and facts are the reused scratch of analyse: its own analysis
	// of a stream, and the facts it reads.
	an    analysis.Analysis
	facts []wordFacts
}

// wordFacts is what instructionAware reads, at one full word of its
// base, of the base's user-mode analysis: the registers clean at the
// word, and the base registers that a reachable memory access after the
// word still needs clean.
type wordFacts struct {
	clean, avoid uint32
}

// readFacts returns in dst the facts of each full word of the n-byte
// stream a is the user-mode analysis of.
func readFacts(dst []wordFacts, a *analysis.Analysis, n int) []wordFacts {
	dst = dst[:0]
	for p := 0; p+4 <= n; p += 4 {
		dst = append(dst, wordFacts{clean: a.CleanAt(int32(p))})
	}
	// An access at pc needs its base clean at each word ending at or
	// before pc: mark the last such word, then OR the marks backwards.
	a.EachInst(func(pc int32, inst isa.Inst, reachable bool) {
		if info := inst.Info(); reachable && info != nil && info.Flags.Any(isa.FlagLoad|isa.FlagStore) {
			if k := int(pc)/4 - 1; k >= 0 {
				dst[k].avoid |= 1 << inst.Rs1
			}
		}
	})
	for k := len(dst) - 2; k >= 0; k-- {
		dst[k].avoid |= dst[k+1].avoid
	}
	return dst
}

// analyse returns the facts of the full words of bs, read from a, the
// user-mode analysis of bs, or from a fresh one when a is nil. They are
// valid until the next call.
func (m *mutator) analyse(bs []byte, a *analysis.Analysis) []wordFacts {
	if len(bs) < 4 {
		return nil // no full word: nothing to read
	}
	if a == nil {
		a = &m.an
		a.Analyze(bs, false)
	}
	m.facts = readFacts(m.facts, a, len(bs))
	return m.facts
}

func newMutator(rng *rand.Rand) *mutator {
	m := &mutator{rng: rng}
	for i := range isa.Instructions {
		in := &isa.Instructions[i]
		if in.Flags.Is(isa.FlagForbidden) {
			continue // the filter would drop the bytestream
		}
		weight := 8
		if in.Flags.Is(isa.FlagTrap) {
			// ECALL ends the test body; inject it rarely so suites keep
			// mostly-running bodies (and Spike-style findings stay rare
			// events, as in the paper's Table I).
			weight = 1
		}
		for w := 0; w < weight; w++ {
			m.injectable = append(m.injectable, in)
		}
	}
	return m
}

// generic applies a random stack of libFuzzer-style byte mutations to a
// copy of base in m.buf. cross must not alias m.buf.
func (m *mutator) generic(base, cross []byte, maxLen int) []byte {
	out := append(m.buf[:0], base...)
	n := 1 + m.rng.Intn(4)
	for i := 0; i < n; i++ {
		switch m.rng.Intn(8) {
		case 0: // erase bytes
			if len(out) > 1 {
				p := m.rng.Intn(len(out))
				k := 1 + m.rng.Intn(len(out)-p)
				out = append(out[:p], out[p+k:]...)
			}
		case 1: // insert a byte
			if len(out) < maxLen {
				p := m.rng.Intn(len(out) + 1)
				out = append(out, 0)
				copy(out[p+1:], out[p:])
				out[p] = byte(m.rng.Intn(256))
			}
		case 2: // change a byte
			if len(out) > 0 {
				out[m.rng.Intn(len(out))] = byte(m.rng.Intn(256))
			}
		case 3: // flip a bit
			if len(out) > 0 {
				out[m.rng.Intn(len(out))] ^= 1 << m.rng.Intn(8)
			}
		case 4: // shuffle a small window
			if len(out) > 2 {
				p := m.rng.Intn(len(out) - 2)
				k := 2 + m.rng.Intn(min(len(out)-p, 8)-1)
				window := out[p : p+k]
				m.rng.Shuffle(len(window), func(i, j int) { window[i], window[j] = window[j], window[i] })
			}
		case 5: // overwrite a word with random bytes
			if len(out) >= 4 {
				p := m.rng.Intn(len(out)-3) &^ 3
				w := m.rng.Uint32()
				out[p], out[p+1], out[p+2], out[p+3] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
			}
		case 6: // copy part of the input over another part
			if len(out) >= 2 {
				src := m.rng.Intn(len(out))
				dst := m.rng.Intn(len(out))
				k := 1 + m.rng.Intn(len(out)-max(src, dst))
				copy(out[dst:dst+k], out[src:src+k])
			}
		case 7: // splice with another corpus entry
			if len(cross) > 0 && len(out) > 0 {
				p := m.rng.Intn(len(out))
				q := m.rng.Intn(len(cross))
				out = append(out[:p], cross[q:]...)
			}
		}
	}
	if len(out) == 0 {
		out = append(out, byte(m.rng.Intn(256)), byte(m.rng.Intn(256)), byte(m.rng.Intn(256)), byte(m.rng.Intn(256)))
	}
	m.buf = out
	return out[:min(len(out), maxLen)]
}

// instructionAware injects valid opcode patterns word by word (the custom
// mutator of section IV-D) into a copy of base in m.buf. An empty base
// is seeded with fresh random instructions. facts, when non-nil, are
// base's stored facts (readFacts of base's own analysis).
func (m *mutator) instructionAware(base []byte, facts []wordFacts, maxLen int) []byte {
	out := m.buf[:0]
	if len(base) == 0 {
		nWords := 1 + m.rng.Intn(max(maxLen/4, 1))
		for range nWords * 4 {
			out = append(out, byte(m.rng.Intn(256)))
		}
	} else {
		out = append(out, base[:min(len(base), maxLen)]...)
	}
	m.buf = out
	// The base's facts guide the injections: per-word clean-register
	// masks guide base-register choice, and the backward base-usage scan
	// tells each word which registers a LATER memory access still needs
	// clean. They go stale as injections land, but the filter arbitrates
	// the final stream either way — this only biases mutation toward
	// acceptable results. They come from a user-mode analysis on both
	// families; the campaign's mode would change trap-family corpora.
	// Stored facts describe base itself, so a random or truncated copy
	// is analysed here.
	if facts == nil || len(out) != len(base) {
		facts = m.analyse(out, nil)
	}

	// The custom mutator uses a 4-byte stride (the paper: "we use a 4
	// byte format").
	for p := 0; p+4 <= len(out); p += 4 {
		if m.rng.Intn(3) != 0 {
			continue
		}
		pos := p / 4
		limitWords := (maxLen - p) / 4 // words after this one stay in bounds
		w := m.validWord(pos, limitWords, facts[pos].clean, facts[pos].avoid)
		out[p], out[p+1], out[p+2], out[p+3] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
	}
	return out
}

// pickCleanBase selects a memory-access base register from the clean
// mask, falling back to the template-initialized x30/x31 when the
// analysis has nothing cleaner to offer (empty mask, unreachable site).
func (m *mutator) pickCleanBase(clean uint32) isa.Reg {
	clean &^= 1 // x0 is never an address register
	n := bits.OnesCount32(clean)
	if n == 0 {
		return isa.Reg(30 + m.rng.Intn(2))
	}
	k := m.rng.Intn(n)
	for r := 1; r < 32; r++ {
		if clean&(1<<r) == 0 {
			continue
		}
		if k == 0 {
			return isa.Reg(r)
		}
		k--
	}
	return isa.Reg(31)
}

// steerRD rewrites the rd field of an encoded instruction word when it
// would dirty a register that a later memory access still needs clean.
func (m *mutator) steerRD(w uint32, avoid uint32) uint32 {
	inst := isa.Ref.Decode32(w)
	info := inst.Info()
	if info == nil || !info.Flags.Is(isa.FlagWritesRD) || avoid&(1<<inst.Rd) == 0 {
		return w
	}
	for try := 0; try < 4; try++ {
		rd := uint32(m.rng.Intn(32))
		if avoid&(1<<rd) == 0 {
			return w&^(0x1f<<7) | rd<<7
		}
	}
	return w &^ (0x1f << 7) // x0: discard the result rather than dirty a live base
}

// compressedHalf builds one valid computational RVC encoding (always
// filter-safe: no memory accesses, no control flow).
func (m *mutator) compressedHalf() uint16 {
	for {
		var inst isa.Inst
		switch m.rng.Intn(7) {
		case 0: // c.li
			inst = isa.Inst{Op: isa.OpADDI, Rd: isa.Reg(1 + m.rng.Intn(31)), Rs1: 0, Imm: int32(m.rng.Intn(64) - 32)}
		case 1: // c.addi
			rd := isa.Reg(1 + m.rng.Intn(31))
			inst = isa.Inst{Op: isa.OpADDI, Rd: rd, Rs1: rd, Imm: int32(1 + m.rng.Intn(31))}
		case 2: // c.lui
			inst = isa.Inst{Op: isa.OpLUI, Rd: isa.Reg(1 + m.rng.Intn(31)), Imm: int32(1+m.rng.Intn(31)) << 12}
		case 3: // c.mv / c.add
			inst = isa.Inst{Op: isa.OpADD, Rd: isa.Reg(1 + m.rng.Intn(31)), Rs2: isa.Reg(1 + m.rng.Intn(31))}
			if m.rng.Intn(2) == 0 {
				inst.Rs1 = inst.Rd
			}
		case 4: // c.sub/xor/or/and
			rd := isa.Reg(8 + m.rng.Intn(8))
			ops := []isa.Op{isa.OpSUB, isa.OpXOR, isa.OpOR, isa.OpAND}
			inst = isa.Inst{Op: ops[m.rng.Intn(4)], Rd: rd, Rs1: rd, Rs2: isa.Reg(8 + m.rng.Intn(8))}
		case 5: // shifts
			ops := []isa.Op{isa.OpSLLI, isa.OpSRLI, isa.OpSRAI}
			op := ops[m.rng.Intn(3)]
			rd := isa.Reg(1 + m.rng.Intn(31))
			if op != isa.OpSLLI {
				rd = isa.Reg(8 + m.rng.Intn(8))
			}
			inst = isa.Inst{Op: op, Rd: rd, Rs1: rd, Imm: int32(1 + m.rng.Intn(31))}
		default: // c.andi
			rd := isa.Reg(8 + m.rng.Intn(8))
			inst = isa.Inst{Op: isa.OpANDI, Rd: rd, Rs1: rd, Imm: int32(m.rng.Intn(64) - 32)}
		}
		if h, ok := isa.Compress(inst); ok {
			return h
		}
	}
}

// validWord builds one valid (though operand-randomized) instruction word.
// pos is the word index within the bytestream; limitWords bounds forward
// branch targets so the filter's bounds check passes more often. clean is
// the analysis' clean-register mask at this site (candidate memory bases)
// and avoid the registers later memory accesses still need clean.
func (m *mutator) validWord(pos, limitWords int, clean, avoid uint32) uint32 {
	if m.rng.Intn(5) == 0 {
		// A pair of valid compressed instructions in one 4-byte slot,
		// exercising the C-extension decode paths with well-formed
		// encodings (random bytes alone mostly produce reserved or
		// illegal RVC forms).
		return uint32(m.compressedHalf()) | uint32(m.compressedHalf())<<16
	}
	in := m.injectable[m.rng.Intn(len(m.injectable))]
	fl := in.Flags
	switch {
	case fl.Any(isa.FlagLoad | isa.FlagStore):
		// A provably clean address register, size-aligned immediate.
		inst := isa.Inst{Op: in.Op}
		inst.Rs1 = m.pickCleanBase(clean)
		inst.Rd = isa.Reg(m.rng.Intn(32))
		inst.Rs2 = isa.Reg(m.rng.Intn(32))
		if in.Fmt != isa.FmtAMO {
			span := 4096 / int(in.MemSize)
			inst.Imm = int32((m.rng.Intn(span) - span/2) * int(in.MemSize))
		}
		if in.Op == isa.OpLRW {
			inst.Rs2 = 0
		}
		w, err := isa.Encode(inst)
		if err != nil {
			return in.Match
		}
		return m.steerRD(w, avoid)
	case fl.Is(isa.FlagBranch) || in.Op == isa.OpJAL:
		// Small offsets keep targets inside the bytestream most of the
		// time (the filter still arbitrates).
		inst := isa.Inst{Op: in.Op}
		inst.Rd = isa.Reg(m.rng.Intn(32))
		inst.Rs1 = isa.Reg(m.rng.Intn(32))
		inst.Rs2 = isa.Reg(m.rng.Intn(32))
		// Offsets move in halfword steps: 2-mod-4 targets land between
		// word boundaries, which is legal with the C extension and the
		// interesting misaligned-jump case without it.
		maxFwd := 2 * limitWords
		if maxFwd > 12 {
			maxFwd = 12
		}
		off := 2
		if maxFwd > 1 {
			off = 2 * (1 + m.rng.Intn(maxFwd-1))
		}
		if pos > 0 && m.rng.Intn(4) == 0 {
			off = -2 * (1 + m.rng.Intn(2*pos))
		}
		inst.Imm = int32(off)
		w, err := isa.Encode(inst)
		if err != nil {
			return in.Match
		}
		return m.steerRD(w, avoid)
	default:
		// Fig. 3: opcode pattern fixed, every other field random — except
		// that a destination a later memory access depends on is steered
		// away so the injection does not break the clean-address chain.
		return m.steerRD(m.rng.Uint32()&^in.Mask|in.Match, avoid)
	}
}
