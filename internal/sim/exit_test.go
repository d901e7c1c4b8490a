package sim

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"rvnegtest/internal/coverage"
	"rvnegtest/internal/exec"
	"rvnegtest/internal/hart"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/mem"
	"rvnegtest/internal/template"
)

// runPair runs bs on s under hook and under fullPath{ref}: the summarized
// run and the executed one. It fails the test unless both give the same
// Outcome (sameOutcome: a collector's run leaves the signature to an
// unhooked one) and footprint, and reports the executed run's outcome,
// signature included, and whether the summary stood for the dump.
func runPair(t *testing.T, s *Simulator, bs []byte, col, ref *coverage.Collector, label string) (Outcome, bool) {
	t.Helper()
	hook, full := exec.Hook(nil), exec.Hook(fullPath{})
	var sig []uint32
	if col != nil {
		hook, full = col, fullPath{ref}
		sig = s.Run(bs).Signature
	}
	e0 := s.exits
	got := s.RunHooked(bs, hook)
	exited := s.exits != e0
	want := s.RunHooked(bs, full)
	sameOutcome(t, label, hook, got, want, sig)
	if col != nil {
		if f, w := col.Map.RunFootprint(), ref.Map.RunFootprint(); !reflect.DeepEqual(f, w) {
			t.Fatalf("%s: footprint diverged (%d vs %d points)", label, len(f), len(w))
		}
		col.Map.DiscardRun()
		ref.Map.DiscardRun()
	}
	return want, exited
}

// TestExitSummaryLimitAtDump pins the limit guard. With P the prefix, k
// the body instructions that reach dump: and D the dump, limits up to
// P+k+D-1 time out exactly where the executed run does, and from P+k+D
// on the dump is summarized; every run equals the executed one.
func TestExitSummaryLimitAtDump(t *testing.T) {
	bs := stream(enc(isa.Inst{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: 1}))
	for _, cfg := range []isa.Config{isa.RV32I, isa.RV32GC} {
		s, err := New(Reference, template.PlatformFor(template.FamilyUser, cfg))
		if err != nil {
			t.Fatal(err)
		}
		total := s.Run(bs).Insts
		p, d := s.entry.insts, s.exit.insts
		k := total - p - d
		col := coverage.NewCollector(coverage.V3())
		ref := coverage.NewCollector(coverage.V3())
		for _, limit := range []uint64{p + k - 1, p + k, p + k + 1, total - 1, total, total + 1} {
			s.Limit = limit
			for _, c := range [][2]*coverage.Collector{{nil, nil}, {col, ref}} {
				out, exited := runPair(t, s, bs, c[0], c[1], cfg.String())
				if limit < total && (!out.TimedOut || out.Insts != limit || exited) {
					t.Fatalf("%v limit %d: %+v (summarized %v), want a timeout after exactly %d",
						cfg, limit, out, exited, limit)
				}
				if limit >= total && (out.TimedOut || out.Insts != total || !exited) {
					t.Fatalf("%v limit %d: %+v (summarized %v), want a summarized run of %d",
						cfg, limit, out, exited, total)
				}
			}
		}
	}
}

// TestExitSummaryGuards drives inputs past each run-time guard: FS
// switched off before FP stores, the dump's first word zeroed, and a
// hook that is no skipper all execute the dump; a store that writes the
// dump's own bytes back leaves it pristine, so the summary still holds.
func TestExitSummaryGuards(t *testing.T) {
	csrwMstatus := enc(isa.Inst{Op: isa.OpCSRRW, CSR: hart.CSRMstatus})
	for _, tc := range []struct {
		fam    template.Family
		words  func(dump int32) []uint32
		exited bool
		check  func(Outcome) bool
	}{
		// 32 FP stores trap and resume one by one.
		{template.FamilyTrap, func(int32) []uint32 { return []uint32{csrwMstatus} }, false,
			func(o Outcome) bool { return o.Traps == 32 && o.Signature != nil }},
		// The first FP store traps into the handler, which jumps to
		// dump: again, until the limit.
		{template.FamilyUser, func(int32) []uint32 { return []uint32{csrwMstatus} }, false,
			func(o Outcome) bool { return o.TimedOut }},
		// The zeroed word traps into the handler, which jumps back to it.
		{template.FamilyUser, func(dump int32) []uint32 {
			return []uint32{enc(isa.Inst{Op: isa.OpSW, Imm: dump})}
		}, false, func(o Outcome) bool { return o.TimedOut }},
		{template.FamilyUser, func(dump int32) []uint32 {
			return []uint32{
				enc(isa.Inst{Op: isa.OpLW, Rd: 5, Imm: dump}),
				enc(isa.Inst{Op: isa.OpSW, Rs2: 5, Imm: dump}),
			}
		}, true, func(o Outcome) bool { return o.Traps == 0 && o.Signature != nil }},
	} {
		s, err := New(Reference, template.PlatformFor(tc.fam, isa.RV32GC))
		if err != nil {
			t.Fatal(err)
		}
		s.Limit = 2000
		bs := stream(tc.words(int32(s.exit.addr))...)
		label := tc.fam.String() + " " + isa.Disasm(isa.Ref.Decode32(binary.LittleEndian.Uint32(bs)))
		for _, cov := range []string{"none", "v3"} {
			var col, ref *coverage.Collector
			if opts, ok := coverage.ByName(cov); ok {
				col, ref = coverage.NewCollector(opts), coverage.NewCollector(opts)
			}
			out, exited := runPair(t, s, bs, col, ref, label)
			if exited != tc.exited || !tc.check(out) {
				t.Fatalf("%s %s: %+v, summarized %v, want %v", label, cov, out, exited, tc.exited)
			}
		}
		e0 := s.exits
		s.RunHooked(stream(), fullPath{})
		if s.exits != e0 {
			t.Fatalf("%s: a hook that is no skipper got a summarized dump", label)
		}
	}
}

// TestExitSummaryFallbacks runs summarizeExit over hand-built dumps:
// it keeps a summary for one that only moves registers into memory and
// refuses every dump whose effect is not a function of the registers it
// stores.
func TestExitSummaryFallbacks(t *testing.T) {
	p := template.PlatformFor(template.FamilyUser, isa.RV32GC)
	const dump = 0x100
	sigHi := (p.Layout.SigAddr + 0x800) &^ 0xfff
	sigLo := int32(p.Layout.SigAddr - sigHi)
	haltHi := (p.Layout.HaltAddr + 0x800) &^ 0xfff
	base := enc(isa.Inst{Op: isa.OpLUI, Rd: 31, Imm: int32(sigHi)})
	store := func(rs2 isa.Reg) uint32 { return enc(isa.Inst{Op: isa.OpSW, Rs1: 31, Rs2: rs2, Imm: sigLo}) }
	halt := []uint32{
		enc(isa.Inst{Op: isa.OpLUI, Rd: 30, Imm: int32(haltHi)}),
		enc(isa.Inst{Op: isa.OpSW, Rs1: 30, Imm: int32(p.Layout.HaltAddr - haltHi)}),
	}
	for _, tc := range []struct {
		name  string
		words []uint32
		srcs  []sigWord // the sources of the signature words up to the first read from memory; nil: no summary
	}{
		{"moves x5", []uint32{base, store(5)}, []sigWord{{srcX, 5}, {srcMem, p.SigWordAddr(1)}}},
		{"moves f3", []uint32{base, enc(isa.Inst{Op: isa.OpFSD, Rs1: 31, Rs2: 3, Imm: sigLo})},
			[]sigWord{{srcF, 6}, {srcF, 7}, {srcMem, p.SigWordAddr(2)}}},
		{"moves a constant", []uint32{base, enc(isa.Inst{Op: isa.OpADDI, Rd: 6, Imm: 7}), store(6)},
			[]sigWord{{srcConst, 7}, {srcMem, p.SigWordAddr(1)}}},
		{"copies x5 first", []uint32{base, enc(isa.Inst{Op: isa.OpADDI, Rd: 6, Rs1: 5}), store(6)}, nil},
		{"stores through x6", []uint32{base, enc(isa.Inst{Op: isa.OpSW, Rs1: 6, Rs2: 5})}, nil},
		{"stores a single", []uint32{base, enc(isa.Inst{Op: isa.OpFSW, Rs1: 31, Rs2: 3, Imm: sigLo})}, nil},
		{"loads", []uint32{base, enc(isa.Inst{Op: isa.OpLW, Rd: 5, Rs1: 31, Imm: sigLo}), store(5)}, nil},
		{"reads mcause", []uint32{base, enc(isa.Inst{Op: isa.OpCSRRS, Rd: 5, CSR: hart.CSRMcause}), store(5)}, nil},
		{"branches", []uint32{base, enc(isa.Inst{Op: isa.OpBEQ, Rs1: 5, Rs2: 6, Imm: 4}), store(5)}, nil},
		{"computes in FP", []uint32{base, enc(isa.Inst{Op: isa.OpFADDD, Rd: 3, Rs1: 3, Rs2: 4, RM: 7}),
			enc(isa.Inst{Op: isa.OpFSD, Rs1: 31, Rs2: 3, Imm: sigLo})}, nil},
		{"traps", []uint32{base, 0xffffffff}, nil},
	} {
		m := mem.New(p.Layout.MemBase, p.Layout.MemSize)
		for i, w := range append(tc.words, halt...) {
			if err := m.Write32(dump+uint32(4*i), w); err != nil {
				t.Fatal(err)
			}
		}
		m.Snapshot()
		s := &Simulator{Variant: Reference, Platform: p, Limit: 100, eff: p.Cfg}
		cpu := hart.New(p.Cfg)
		s.entry = &entryState{cpu: *cpu}
		s.attach(&template.Image{Platform: p, Mem: m, ExitAddr: dump}, &isa.Decoder{})
		x := s.summarizeExit()
		if m.Dirty() {
			t.Fatalf("%s: the proof left the image dirty", tc.name)
		}
		switch {
		case tc.srcs == nil && x != nil:
			t.Errorf("%s: kept a summary, want none", tc.name)
		case tc.srcs == nil:
		case x == nil:
			t.Errorf("%s: no summary", tc.name)
		case x.insts != uint64(len(tc.words)+2) || x.addr != dump || x.size != uint32(4*len(tc.words)+8):
			t.Errorf("%s: summary of %d instructions over [%#x,+%d)", tc.name, x.insts, x.addr, x.size)
		default:
			// One run of the moved words, one of the memory words after them.
			words := sigSources(t, x)
			if len(x.runs) != 2 || !slices.Equal(words[:len(tc.srcs)], tc.srcs) {
				t.Errorf("%s: runs %+v, want words from %+v on", tc.name, x.runs, tc.srcs)
			}
		}
	}
}

// TestExitSummaryRuns checks that every platform's summary compiles its
// signature into a few runs that cover it in order: the x registers, the
// f registers and each memory area are one run each.
func TestExitSummaryRuns(t *testing.T) {
	sims, labels := platforms(t)
	for i, s := range sims {
		sigSources(t, s.exit)
		if n := len(s.exit.runs); n > 6 {
			t.Errorf("%s: %d signature words in %d runs, want at most 6", labels[i], s.exit.sigWords, n)
		}
	}
}

// TestRunIntoMatchesRun checks RunInto against Run on every platform:
// into one buffer, reused across every run and filled with a random
// marker word before each, RunInto gives Run's outcome field for field,
// its signature in the buffer and nothing written past the platform's
// words. The inputs are a seeded corpus plus three the exit summary does
// not stand for: a nop stored over the dump's store of x5 (the run
// completes and that word comes from memory), csrw mstatus, x0 (the
// dump's FP stores trap; on the trap template the run completes with
// trap records), and a limit that falls inside the dump. Run's
// signatures are fresh slices: one kept across a second run with another
// signature stays as it was.
func TestRunIntoMatchesRun(t *testing.T) {
	sims, labels := platforms(t)
	buf := make([]uint32, 256)
	rnd := splitmix(1)
	corpus := append(outcomeMix(), fuzzCorpus(48, 5)...)
	for si, s := range sims {
		s.Limit = 2000
		var nop []byte
		for a := s.exit.addr; a < s.exit.addr+s.exit.size && nop == nil; a += 4 {
			if w, _ := s.img.Mem.Read32(a); isa.Ref.Decode32(w).Op == isa.OpSW && isa.Ref.Decode32(w).Rs2 == 5 {
				nop = stream(enc(isa.Inst{Op: isa.OpADDI, Rd: 6, Imm: 0x13}), enc(isa.Inst{Op: isa.OpSW, Rs2: 6, Imm: int32(a)}))
			}
		}
		if nop == nil {
			t.Fatalf("%s: the dump stores no x5", labels[si])
		}
		csrw := stream(enc(isa.Inst{Op: isa.OpCSRRW, CSR: hart.CSRMstatus}))
		inDump := s.Run(nil).Insts - s.exit.insts/2
		n := s.Platform.SigWords()
		exits, read := s.exits, 0
		for i, bs := range append(corpus, nop, csrw, nil) {
			label := fmt.Sprintf("%s input %d (%x)", labels[si], i, bs)
			if i == len(corpus)+2 {
				s.Limit = inDump
				label += fmt.Sprintf(" at limit %d", inDump)
			}
			want := s.Run(bs)
			mark := uint32(rnd())
			for j := range buf {
				buf[j] = mark
			}
			e0 := s.exits
			got := s.RunInto(bs, buf)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: RunInto diverged from Run:\ninto %+v\nrun  %+v", label, got, want)
			}
			if got.Signature != nil && &got.Signature[0] != &buf[0] {
				t.Fatalf("%s: the signature was not written into the caller's buffer", label)
			}
			if j := slices.IndexFunc(buf[n:], func(w uint32) bool { return w != mark }); j >= 0 {
				t.Fatalf("%s: RunInto wrote word %d past the %d-word signature", label, n+j, n)
			}
			if got.Signature != nil && s.exits == e0 {
				read++
			}
		}
		if s.exits == exits || read == 0 {
			t.Fatalf("%s: %d runs summarized the dump, %d completed without it; want both",
				labels[si], s.exits-exits, read)
		}
		s.Limit = DefaultInstLimit
		a := s.Run(stream(enc(isa.Inst{Op: isa.OpADDI, Rd: 5, Imm: 1})))
		kept := slices.Clone(a.Signature)
		s.Run(stream(enc(isa.Inst{Op: isa.OpADDI, Rd: 5, Imm: 2})))
		if !slices.Equal(a.Signature, kept) {
			t.Fatalf("%s: a second Run changed the signature the first returned", labels[si])
		}
	}
}

// sigSources expands a summary's runs into the source of every signature
// word, failing the test unless the runs cover the signature in order.
func sigSources(t *testing.T, x *exitSummary) []sigWord {
	t.Helper()
	var words []sigWord
	for _, r := range x.runs {
		if r.at != len(words) || r.n < 1 || r.src == srcConst && r.n != 1 {
			t.Fatalf("run %+v after %d words", r, len(words))
		}
		for i := range r.n {
			words = append(words, sigWord{r.src, r.val + runStep[r.src]*uint32(i)})
		}
	}
	if len(words) != x.sigWords {
		t.Fatalf("runs cover %d of %d signature words", len(words), x.sigWords)
	}
	return words
}

// FuzzExitSummaryDifferential compares summarized and executed dumps on
// every variant × {RV32I, RV32IMC, RV32GC} × family × {no hook, v0, v3}.
// The input picks the platform (byte 0), the coverage (byte 1), a limit
// (bytes 2-3: 0 means 2,000 instructions, else that many past the
// prefix) and a hart seed (bytes 4-11); the rest is the bytestream. Each
// input runs twice on a simulator that may summarize its dump and on a
// second one built by New under a hook that is no skipper: once as it
// is, and once with the hart replaced at dump: by a random one (CSRs and
// the instruction count included). Both must give the same Outcome, leave the same
// memory to the next run and record the same footprint, order included;
// a collector's run leaves the signature to an unhooked run of the same
// input or from the same hart (sameOutcome). Every unhooked run of the
// first simulator writes its signature into one buffer, reused from
// input to input and refilled with words drawn from the hart seed
// before each run, so a word the run leaves unwritten shows.
func FuzzExitSummaryDifferential(f *testing.F) {
	sims, labels := platforms(f)
	refs, _ := platforms(f)
	header := func(pi, cov int, limit uint16, seed uint64) []byte {
		h := []byte{byte(pi), byte(cov), byte(limit), byte(limit >> 8)}
		return binary.LittleEndian.AppendUint64(h, seed)
	}
	for pi, s := range sims {
		if !slices.Contains([]string{"reference/RV32GC/user", "reference/RV32GC/trap", "GRIFT/RV32IMC/trap", "sail-riscv/RV32I/user"}, labels[pi]) {
			continue
		}
		dump := int32(s.exit.addr)
		jump := enc(isa.Inst{Op: isa.OpJAL, Imm: dump - int32(s.img.InjectAddr)})
		in := s.Run(nil).Insts - s.entry.insts - s.exit.insts
		for cov := range 3 {
			f.Add(append(header(pi, cov, 0, 1), stream(enc(isa.Inst{Op: isa.OpCSRRW, CSR: hart.CSRMstatus}))...))
			f.Add(append(header(pi, cov, 0, 2), stream(enc(isa.Inst{Op: isa.OpSW, Imm: dump}))...))
			f.Add(append(header(pi, cov, 0, 3), stream(jump)...))
			f.Add(header(pi, cov, uint16(in+s.exit.insts/2), 4))
		}
	}
	cols := [3][2]*coverage.Collector{{}}
	for i, name := range []string{"v0", "v3"} {
		opts, _ := coverage.ByName(name)
		cols[i+1] = [2]*coverage.Collector{coverage.NewCollector(opts), coverage.NewCollector(opts)}
	}
	buf := make([]uint32, 256)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 12 {
			return
		}
		pi := int(data[0]) % len(sims)
		// dirty refills buf for the next unhooked run; into checks that a
		// completed one wrote its signature there.
		dirty := func() []uint32 {
			rnd := splitmix(^binary.LittleEndian.Uint64(data[4:]))
			for i := range buf {
				buf[i] = uint32(rnd())
			}
			return buf
		}
		into := func(out Outcome) Outcome {
			t.Helper()
			if out.Signature != nil && &out.Signature[0] != &buf[0] {
				t.Fatalf("%s: the signature was not written into the caller's buffer", labels[pi])
			}
			return out
		}
		s, r := sims[pi], refs[pi]
		col, ref := cols[int(data[1])%3][0], cols[int(data[1])%3][1]
		hook, full := exec.Hook(nil), exec.Hook(fullPath{})
		if col != nil {
			hook, full = col, fullPath{ref}
		}
		s.Limit = 2000
		if l := binary.LittleEndian.Uint16(data[2:]); l != 0 {
			s.Limit = s.entry.insts + uint64(l)
		}
		r.Limit = s.Limit
		bs := data[12:]
		if n := s.Platform.Layout.MaxBytes(); len(bs) > n {
			bs = bs[:n]
		}
		check := func(phase string, got, want Outcome, sig []uint32) {
			t.Helper()
			label := labels[pi] + " " + phase
			sameOutcome(t, label, hook, got, want, sig)
			if col != nil {
				if f, w := col.Map.RunFootprint(), ref.Map.RunFootprint(); !reflect.DeepEqual(f, w) {
					t.Fatalf("%s: footprint diverged (%d vs %d points)", label, len(f), len(w))
				}
				col.Map.DiscardRun()
				ref.Map.DiscardRun()
			}
			// What the next run sees: the pristine image plus its input.
			if s.img.Inject(bs) != nil || r.img.Inject(bs) != nil {
				t.Fatal("inject failed")
			}
			a, _ := s.img.Mem.ReadBytes(s.img.Mem.Base(), s.img.Mem.Size())
			b, _ := r.img.Mem.ReadBytes(r.img.Mem.Base(), r.img.Mem.Size())
			if !slices.Equal(a, b) {
				t.Fatalf("%s: the next run sees different memory", label)
			}
		}
		var sig []uint32
		got := into(s.RunInto(bs, dirty()))
		if col != nil {
			sig = got.Signature
			got = s.RunHooked(bs, hook)
		}
		check("as input", got, r.RunHooked(bs, full), sig)

		if s.start(bs, hook) != nil || r.start(bs, full) != nil {
			t.Fatal("start failed")
		}
		if col != nil {
			col.Map.DiscardRun()
			ref.Map.DiscardRun()
		}
		h := randomHart(s.cpu, s.exit.addr, binary.LittleEndian.Uint64(data[4:]))
		n := h.Minstret % (s.Limit + 1)
		s.cpu, s.ex.InstCount = h, n
		r.cpu, r.ex.InstCount = h, n
		got, want := into(s.finish(hook, dirty())), r.finish(full, nil)
		if col != nil {
			// The same hart with no hook gives the signature.
			if s.start(bs, nil) != nil {
				t.Fatal("start failed")
			}
			s.cpu, s.ex.InstCount = h, n
			sig = into(s.finish(nil, dirty())).Signature
		}
		check("from a random hart", got, want, sig)
	})
}

// randomHart returns h at pc with every register and CSR drawn from
// seed: singles NaN-boxed or not, mstatus.FS Off one time in four, mtvec
// at the template's handler one time in two.
func randomHart(h hart.Hart, pc uint32, seed uint64) hart.Hart {
	rnd := splitmix(seed)
	for i := 1; i < isa.NumRegs; i++ {
		h.X[i] = uint32(rnd())
	}
	box := rnd()
	for i := range h.F {
		h.F[i] = rnd()
		if box>>i&1 != 0 {
			h.F[i] |= 0xffffffff << 32
		}
	}
	h.PC = pc
	h.Mstatus = uint32(rnd())
	if rnd()&1 == 0 {
		h.Mtvec = uint32(rnd())
	}
	h.Mscratch, h.Mepc, h.Mcause, h.Mtval = uint32(rnd()), uint32(rnd())&^1, uint32(rnd()), uint32(rnd())
	h.Mie, h.Mcycle, h.Minstret = uint32(rnd())&0x888, rnd(), rnd()
	h.Fflags, h.Frm = uint8(rnd()&0x1f), uint8(rnd()&7)
	h.ResValid, h.ResAddr = rnd()&1 == 0, uint32(rnd())&^3
	return h
}
