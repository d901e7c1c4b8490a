package sim

import (
	"slices"

	"rvnegtest/internal/exec"
	"rvnegtest/internal/hart"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/mem"
)

// exitSummary is the template's shutdown sequence (dump: up to the halt
// store) as a function of the hart that reaches it: which signature
// words it writes from which registers, which it writes with constants,
// and how many instructions it takes. Like entryState it is derived
// from the variant's own execution once per New.
type exitSummary struct {
	addr, size uint32 // the code the dump fetches: [addr, addr+size)
	insts      uint64 // instructions the dump takes, halt store included
	fp         bool   // the dump executes FP instructions
	sigWords   int    // the signature's length in words
	runs       []sigRun
}

// sigWord is where one signature word comes from: val is the word
// (srcConst), its address (srcMem), the x register (srcX) or the f-register
// half, 2*register plus 1 for the high word (srcF).
type sigWord struct {
	src uint8
	val uint32
}

const (
	srcMem   uint8 = iota // not written by the dump: read from memory
	srcConst              // a constant
	srcX                  // an x register
	srcF                  // one half of an f register
)

// sigRun is a stretch of n signature words from word at on whose
// sources follow each other: consecutive memory words, x registers or
// f-register halves (low, high, next low, ...) starting at sigWord's.
// A constant is a run of its own.
type sigRun struct {
	sigWord
	at, n int
}

// runStep is how far a source moves from one word of a run to the next
// (0: a constant, which never extends a run).
var runStep = [...]uint32{srcMem: 4, srcConst: 0, srcX: 1, srcF: 1}

// compileRuns groups the per-word sources of a signature into runs.
func compileRuns(words []sigWord) []sigRun {
	var runs []sigRun
	for i, w := range words {
		k := len(runs) - 1
		if step := runStep[w.src]; k >= 0 && runs[k].src == w.src && step != 0 &&
			w.val == runs[k].val+step*uint32(runs[k].n) {
			runs[k].n++
			continue
		}
		runs = append(runs, sigRun{sigWord: w, at: i, n: 1})
	}
	return runs
}

// exitProofRuns is how many distinct register files New executes the
// dump from before it trusts a summary: one per mstatus.FS value that
// lets FP instructions execute.
const exitProofRuns = 3

// summarizeExit derives the exit summary by executing the dump on the
// simulator's own image from exitProofRuns register files. The first run
// implies a summary; it is kept only if every later run agrees with it.
// Each run starts at dump: from the entry state with random x and f
// registers (NaN-boxed singles in every other run), a different
// mstatus.FS that lets FP instructions execute, and random marker words
// in the signature area, so a word still holding its marker afterwards
// is one the dump does not write. The dump must halt within Limit
// without trapping or panicking, take the same path every time, and
// only move register values into memory: see exitTrace. The image is
// restored afterwards.
func (s *Simulator) summarizeExit() *exitSummary {
	if s.entry == nil {
		return nil
	}
	defer s.img.Mem.Restore()
	p := s.Platform
	halted := func() bool { return s.ex.Halted }
	var sum *exitSummary
	var path []uint32
	for r := range exitProofRuns {
		rnd := splitmix(uint64(r) + 1)
		markers := make([]uint32, p.SigWords())
		for i := range markers {
			markers[i] = uint32(rnd())
			if s.img.Mem.Write32(p.SigWordAddr(i), markers[i]) != nil {
				return nil
			}
		}
		s.cpu = s.entry.cpu
		s.cpu.PC = s.img.ExitAddr
		for i := 1; i < isa.NumRegs; i++ {
			s.cpu.X[i] = uint32(rnd())
		}
		for i := range s.cpu.F {
			s.cpu.F[i] = rnd()
			if r%2 == 1 {
				s.cpu.F[i] |= 0xffffffff << 32
			}
		}
		if s.cpu.Cfg.HasFP() {
			fs := [exitProofRuns]uint32{hart.FSInitial, hart.FSClean, hart.FSDirty}[r]
			s.cpu.Mstatus = s.cpu.Mstatus&^hart.MstatusFS | fs
		}
		entry := s.cpu
		var want []uint32
		if sum != nil {
			want = sum.signature(&entry, s.img.Mem)
		}
		t := &exitTrace{entry: &entry, lo: entry.PC, hi: entry.PC}
		if !s.trial(t, halted) || t.bad {
			return nil
		}
		sig, err := s.img.Signature()
		if err != nil {
			return nil
		}
		if sum == nil {
			words := make([]sigWord, len(sig))
			for i, v := range sig {
				words[i] = sourceOf(v, &entry)
				if v == markers[i] {
					words[i] = sigWord{src: srcMem, val: p.SigWordAddr(i)}
				}
			}
			sum = &exitSummary{addr: t.lo, size: t.hi - t.lo, insts: s.ex.InstCount, fp: t.fp,
				sigWords: len(sig), runs: compileRuns(words)}
			path, want = t.path, sig
		}
		if s.ex.InstCount != sum.insts || t.lo != sum.addr || t.hi-t.lo != sum.size ||
			!slices.Equal(t.path, path) || !slices.Equal(sig, want) {
			return nil
		}
	}
	return sum
}

// exitTrace is the hook a proof run executes the dump under. Its path
// holds each fetch address, each edge and the value of each register
// the dump reads after writing it; it also notes the code span and
// whether an FP instruction ran. It flags what no summary can stand for:
// reading memory or CSRs, control flow, any FP instruction but a store,
// and reading an integer register the dump did not write itself other
// than as the data of a store. So the hart at dump: reaches memory only
// as stored register values, and every address and every other register
// value the dump computes is the same whatever that hart holds.
type exitTrace struct {
	entry   *hart.Hart
	written uint32 // integer registers the dump has written so far
	path    []uint32
	lo, hi  uint32
	fp, bad bool
}

func (t *exitTrace) OnInst(in *isa.Inst, h *hart.Hart) {
	fl := in.Info().Flags
	const refused = isa.FlagLoad | isa.FlagAMO | isa.FlagCSR | isa.FlagBranch | isa.FlagJump |
		isa.FlagForbidden | isa.FlagTrap
	if fl&refused != 0 || fl.Is(isa.FlagFP) && !fl.Is(isa.FlagStore) {
		t.bad = true
	}
	t.fp = t.fp || fl.Is(isa.FlagFP)
	t.lo, t.hi = min(t.lo, h.PC), max(t.hi, h.PC+uint32(in.Size))
	t.path = append(t.path, h.PC)
	t.read(fl.Is(isa.FlagReadsRS1), in.Rs1, false, h)
	t.read(fl.Is(isa.FlagReadsRS2), in.Rs2, fl.Is(isa.FlagStore), h)
	if fl.Is(isa.FlagWritesRD) {
		t.written |= 1 << in.Rd
	}
}

// read checks one source register read: the value of a register the
// dump wrote joins the path; any other may only be stored (data) and
// must still hold its entry value.
func (t *exitTrace) read(reads bool, r isa.Reg, data bool, h *hart.Hart) {
	switch {
	case !reads || r == 0:
	case t.written&(1<<r) != 0:
		t.path = append(t.path, h.ReadX(r))
	case !data || h.ReadX(r) != t.entry.ReadX(r):
		t.bad = true
	}
}

func (t *exitTrace) OnEdge(edge uint32) { t.path = append(t.path, edge) }

// sourceOf names the register (or register half) a signature word was
// stored from, or the constant it holds.
func sourceOf(v uint32, h *hart.Hart) sigWord {
	for r := 1; r < isa.NumRegs; r++ {
		if v == h.X[r] {
			return sigWord{src: srcX, val: uint32(r)}
		}
	}
	for half := range uint32(2 * isa.NumRegs) {
		if v == uint32(h.F[half/2]>>(32*(half%2))) {
			return sigWord{src: srcF, val: half}
		}
	}
	return sigWord{src: srcConst, val: v}
}

// signature is the signature of a dump executed from h: the words it
// writes from h and its constants, the others read from m, filled run by
// run.
func (x *exitSummary) signature(h *hart.Hart, m *mem.Memory) []uint32 {
	sig := make([]uint32, x.sigWords)
	for _, r := range x.runs {
		dst := sig[r.at : r.at+r.n]
		switch r.src {
		case srcMem:
			m.LoadWords(r.val, dst) // read once by summarizeExit: in range
		case srcConst:
			dst[0] = r.val
		case srcX:
			copy(dst, h.X[r.val:])
		default:
			for i := range dst {
				half := r.val + uint32(i)
				dst[i] = uint32(h.F[half/2] >> (32 * (half % 2)))
			}
		}
	}
	return sig
}

// takeExit accounts for the dump instead of executing it, once the
// run's next fetch is dump:, when every guard holds: the dump's code is
// pristine, mstatus.FS lets its FP instructions execute, the run has
// room for all of it under Limit, and the hook is nil or a skipper.
func (s *Simulator) takeExit(hook exec.Hook) bool {
	x, e := s.exit, &s.ex
	if (x.fp && !s.cpu.FPEnabled()) || e.InstCount+x.insts > s.Limit || !s.img.Mem.Pristine(x.addr, x.size) {
		return false
	}
	if hook != nil {
		sk, ok := hook.(skipper)
		if !ok {
			return false
		}
		sk.SkipExit(x, s.exitReplay, &s.cpu)
	}
	e.InstCount += x.insts
	e.Halted = true
	s.exits++
	return true
}

// replayExit executes the dump from the current hart with hook attached,
// then puts the hart and executor back: the run goes on as if the dump
// had not executed. The dump's stores leave alone every word the summary
// reads from memory (summarizeExit checked), so the signature comes out
// as the summary predicts.
func (s *Simulator) replayExit(hook exec.Hook) {
	cpu, ex := s.cpu, s.ex
	s.ex.Hook = hook
	for range s.exit.insts {
		s.ex.Step()
	}
	s.cpu, s.ex = cpu, ex
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
