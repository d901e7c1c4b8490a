package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rvnegtest/internal/coverage"
	"rvnegtest/internal/exec"
	"rvnegtest/internal/hart"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/mem"
	"rvnegtest/internal/template"
)

// fullPath wraps a hook (nil: observe nothing) without implementing
// skipper, so a run under it executes the template prefix and the dump:
// the reference every fast-forwarded and summarized run must reproduce.
type fullPath struct{ h exec.Hook }

func (f fullPath) OnInst(in *isa.Inst, h *hart.Hart) {
	if f.h != nil {
		f.h.OnInst(in, h)
	}
}

func (f fullPath) OnEdge(edge uint32) {
	if f.h != nil {
		f.h.OnEdge(edge)
	}
}

// sameOutcome fails the test unless got, a run under hook, equals want,
// the same run executed under fullPath. A coverage collector's run
// returns no signature: got must leave it nil and equal want in every
// other field, and want's signature must equal sig, the signature of the
// same run with no hook.
func sameOutcome(t testing.TB, label string, hook exec.Hook, got, want Outcome, sig []uint32) {
	t.Helper()
	if _, ok := hook.(skipper); ok {
		if got.Signature != nil {
			t.Fatalf("%s: a collector's run returned a signature: %+v", label, got)
		}
		if !reflect.DeepEqual(want.Signature, sig) {
			t.Fatalf("%s: executed signature %v, unhooked %v", label, want.Signature, sig)
		}
		got.Signature = want.Signature
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: outcome diverged:\nfast %+v\nfull %+v", label, got, want)
	}
}

// fuzzCorpus returns n seeded inputs of 1..16 words in the mix a
// mutating fuzzer produces: legal 32-bit encodings with random fields,
// raw words, compressed halfword pairs, and — in one input of sixteen —
// a jump back into the template prefix.
func fuzzCorpus(n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	dec := &isa.Decoder{}
	half := func() uint32 {
		h := uint32(rng.Intn(1 << 16))
		if h&3 == 3 {
			h ^= 1
		}
		return h
	}
	out := make([][]byte, n)
	for i := range out {
		words := make([]uint32, 1+rng.Intn(16))
		for j := range words {
			switch rng.Intn(4) {
			case 0:
				words[j] = rng.Uint32()
			case 1:
				words[j] = half() | half()<<16
			default:
				w := rng.Uint32() | 3
				for dec.Decode32(w).Info() == nil {
					w = rng.Uint32() | 3
				}
				words[j] = w
			}
		}
		if rng.Intn(16) == 0 {
			j := rng.Intn(len(words))
			words[j] = enc(isa.Inst{Op: isa.OpJAL, Rd: 1, Imm: -int32(4*j + 8)})
		}
		out[i] = stream(words...)
	}
	return out
}

// outcomeMix is a case mix covering the outcome classes: clean bodies,
// illegal encodings, deliberate traps, a decoder-crash pattern (Sail), a
// self-loop timeout, and an empty body.
func outcomeMix() [][]byte {
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

// platforms lists every supported variant × {RV32I, RV32IMC, RV32GC} ×
// family combination.
func platforms(t testing.TB) (sims []*Simulator, labels []string) {
	t.Helper()
	for _, v := range All {
		for _, cfg := range []isa.Config{isa.RV32I, isa.RV32IMC, isa.RV32GC} {
			if !v.Supports(cfg) {
				continue
			}
			for _, fam := range []template.Family{template.FamilyUser, template.FamilyTrap} {
				s, err := New(v, template.PlatformFor(fam, cfg))
				if err != nil {
					t.Fatal(err)
				}
				label := v.Name + "/" + cfg.String() + "/" + fam.String()
				if s.entry == nil {
					t.Fatalf("%s: no entry state: every run executes the prefix", label)
				}
				if s.exit == nil {
					t.Fatalf("%s: no exit summary: every run executes the dump", label)
				}
				sims, labels = append(sims, s), append(labels, label)
			}
		}
	}
	return sims, labels
}

// entryMark moves the entry state's mcycle in executedSteps, far from any
// count a run reaches.
const entryMark = 1 << 40

// executedSteps reruns bs under hook with the entry state's mcycle moved
// by entryMark and returns the run and the steps it executed or stood
// for with a handler summary. mcycle counts every step, a summarized
// handler path advances it by the path's length, and the replay of a
// skipped region puts the hart back, so its growth counts exactly that;
// the mark tells a run that started at the entry state from one that
// executed the prefix from reset. The count holds for inputs that write
// no counter CSR.
func executedSteps(s *Simulator, bs []byte, hook exec.Hook) (Outcome, uint64) {
	s.entry.cpu.Mcycle += entryMark
	defer func() { s.entry.cpu.Mcycle -= entryMark }()
	out := s.RunHooked(bs, hook)
	return out, s.cpu.Mcycle - s.entry.cpu.Mcycle
}

// TestFastForwardMatchesFullPath is the fast-forward differential: on
// every platform, unhooked and under v0 and v3 collectors, a run that
// starts at the entry state and summarizes the dump must equal a run
// that executes both — the same Outcome and the same coverage footprint,
// order included — over outcomeMix and a seeded corpus of about 2k
// executions; a collector's run leaves the signature to an unhooked run
// of the same input (sameOutcome). A run executes exactly Insts minus the prefix, minus the
// dump too when summarized (counted by executedSteps, which counts the
// handler paths a summary stood for as executed), and the full path
// executes Insts. Every trap-family platform must summarize some handler
// path unhooked and under v0.
// Many random inputs loop on the trap template; a 2,000-instruction
// limit keeps them cheap (filter-accepted cases retire far fewer).
func TestFastForwardMatchesFullPath(t *testing.T) {
	inputs := append(outcomeMix(), fuzzCorpus(64, 1)...)
	sims, labels := platforms(t)
	for si, s := range sims {
		s.Limit = 2000
		for _, cov := range []string{"none", "v0", "v3"} {
			exits, handled, counted := s.exits, s.handled, 0
			var fast, full *coverage.Collector
			fastHook, fullHook := exec.Hook(nil), exec.Hook(fullPath{})
			if opts, ok := coverage.ByName(cov); ok {
				fast, full = coverage.NewCollector(opts), coverage.NewCollector(opts)
				fastHook, fullHook = fast, fullPath{full}
			}
			for i, bs := range inputs {
				label := fmt.Sprintf("%s %s input %d (%x)", labels[si], cov, i, bs)
				got := s.RunHooked(bs, fastHook)
				var sig []uint32
				if fast != nil {
					sig = s.Run(bs).Signature
				}
				want := s.RunHooked(bs, fullHook)
				sameOutcome(t, label, fastHook, got, want, sig)
				if fast != nil {
					if f, w := fast.Map.RunFootprint(), full.Map.RunFootprint(); !reflect.DeepEqual(f, w) {
						t.Fatalf("%s: coverage footprint diverged (%d vs %d points)", label, len(f), len(w))
					}
					if fast.Map.MergeNew() != full.Map.MergeNew() {
						t.Fatalf("%s: novelty diverged", label)
					}
				}
				if s.cpu.Mcycle != want.Insts {
					continue // the input wrote mcycle: no count to check
				}
				e0 := s.exits
				again, n := executedSteps(s, bs, fastHook)
				dump := uint64(0)
				if s.exits != e0 {
					dump = s.exit.insts
				}
				if n != again.Insts-s.entry.insts-dump {
					t.Fatalf("%s: fast-forwarded run executed %d, want Insts %d - prefix %d - dump %d",
						label, n, again.Insts, s.entry.insts, dump)
				}
				counted++
				if fast != nil {
					fast.Map.DiscardRun()
				}
			}
			if fast != nil && fast.Map.BucketBits() != full.Map.BucketBits() {
				t.Fatalf("%s %s: bucket bits %d vs %d", labels[si], cov, fast.Map.BucketBits(), full.Map.BucketBits())
			}
			if s.exits == exits {
				t.Fatalf("%s %s: no run summarized its dump", labels[si], cov)
			}
			if s.Platform.Family == template.FamilyTrap && cov != "v3" && s.handled == handled {
				t.Fatalf("%s %s: no run summarized a handler path", labels[si], cov)
			}
			if counted < len(inputs)*9/10 {
				t.Fatalf("%s %s: executed steps counted on %d of %d inputs", labels[si], cov, counted, len(inputs))
			}
		}
	}
}

// TestFastForwardLimitAtPrefix: an instruction limit at or below the
// prefix length leaves nothing to skip to, so the run falls back to the
// full path and times out exactly where it always did; just above it
// the fast-forwarded run agrees too.
func TestFastForwardLimitAtPrefix(t *testing.T) {
	bs := stream(enc(isa.Inst{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: 1}))
	for _, cfg := range []isa.Config{isa.RV32I, isa.RV32GC} {
		s, err := New(Reference, template.PlatformFor(template.FamilyUser, cfg))
		if err != nil {
			t.Fatal(err)
		}
		p := s.entry.insts
		col := coverage.NewCollector(coverage.V3())
		ref := coverage.NewCollector(coverage.V3())
		for _, limit := range []uint64{0, 1, p - 1, p, p + 1, p + 2} {
			s.Limit = limit
			sig := s.Run(bs).Signature
			for _, hooks := range [][2]exec.Hook{{nil, fullPath{}}, {col, fullPath{ref}}} {
				got, want := s.RunHooked(bs, hooks[0]), s.RunHooked(bs, hooks[1])
				sameOutcome(t, fmt.Sprintf("%v limit %d", cfg, limit), hooks[0], got, want, sig)
				if limit <= p+1 && (!got.TimedOut || got.Insts != limit) {
					t.Fatalf("%v limit %d: %+v, want a timeout after exactly %d", cfg, limit, got, limit)
				}
			}
			if f, w := col.Map.RunFootprint(), ref.Map.RunFootprint(); !reflect.DeepEqual(f, w) {
				t.Fatalf("%v limit %d: footprint diverged", cfg, limit)
			}
			col.Map.DiscardRun()
			ref.Map.DiscardRun()
		}
	}
}

// TestFastForwardKeySwitch drives one collector through two simulators
// with different prefixes in alternation: every switch of key must
// re-derive the prefix coverage, never replay the other simulator's.
func TestFastForwardKeySwitch(t *testing.T) {
	a, err := New(Reference, template.PlatformFor(template.FamilyUser, isa.RV32GC))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Grift, template.PlatformFor(template.FamilyTrap, isa.RV32IMC))
	if err != nil {
		t.Fatal(err)
	}
	col := coverage.NewCollector(coverage.V3())
	ref := coverage.NewCollector(coverage.V3())
	for i, bs := range append(outcomeMix(), fuzzCorpus(16, 2)...) {
		for _, s := range []*Simulator{a, b, a} {
			got, sig, want := s.RunHooked(bs, col), s.Run(bs).Signature, s.RunHooked(bs, fullPath{ref})
			sameOutcome(t, fmt.Sprintf("input %d on %s", i, s.Variant.Name), col, got, want, sig)
			if f, w := col.Map.RunFootprint(), ref.Map.RunFootprint(); !reflect.DeepEqual(f, w) {
				t.Fatalf("input %d on %s: footprint diverged", i, s.Variant.Name)
			}
			col.Map.DiscardRun()
			ref.Map.DiscardRun()
		}
	}
}

// regionRuns is a collector that counts the regions it runs.
type regionRuns struct {
	*coverage.Collector
	runs int
}

func (c *regionRuns) Skip(key any, run func(exec.Hook), h *hart.Hart, slot int) bool {
	return c.Collector.Skip(key, func(hk exec.Hook) { c.runs++; run(hk) }, h, slot)
}

// TestReplayRestoresMemory runs one trapping input twice under one
// collector on both families under v0 and v3: the first run records
// every region it skips, the second takes them all from the collector's
// memo. The memory after the two runs must be equal, so the replay that
// records a region puts back what the region stored, the dump's
// signature included.
func TestReplayRestoresMemory(t *testing.T) {
	bs := stream(0xffffffff)
	for _, fam := range []template.Family{template.FamilyUser, template.FamilyTrap} {
		s, err := New(Reference, template.PlatformFor(fam, isa.RV32GC))
		if err != nil {
			t.Fatal(err)
		}
		m := s.img.Mem
		for _, cov := range []string{"v0", "v3"} {
			label := fam.String() + " " + cov
			opts, _ := coverage.ByName(cov)
			col := &regionRuns{Collector: coverage.NewCollector(opts)}
			var after [2][]byte
			var runs [2]int
			for i := range after {
				if out := s.RunHooked(bs, col); out.Traps != 1 || out.Crashed || out.TimedOut {
					t.Fatalf("%s: %+v, want one trap", label, out)
				}
				col.Map.DiscardRun()
				after[i], _ = m.ReadBytes(m.Base(), m.Size())
				runs[i] = col.runs
			}
			if runs[0] == 0 || runs[1] != runs[0] {
				t.Fatalf("%s: the runs ran %v regions, want some, then none", label, runs)
			}
			if !bytes.Equal(after[0], after[1]) {
				t.Errorf("%s: the memory after the run that recorded its regions differs from the next run's", label)
			}
		}
	}
}

// TestFastForwardFallbacks runs fastForward on simulators over hand-built
// images whose prefix must not be skipped, and over clean ones that may.
// Every case must leave the image as it found it.
func TestFastForwardFallbacks(t *testing.T) {
	p := template.PlatformFor(template.FamilyUser, isa.RV32IMC)
	const inject = 0x40
	addi := enc(isa.Inst{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: 1})
	haltHi := (p.Layout.HaltAddr + 0x800) &^ 0xfff
	for _, tc := range []struct {
		name  string
		words []uint32
		limit uint64
		quirk isa.Quirks
		want  uint64 // prefix length; 0: no entry state
	}{
		// Every image jumps from the end of its words to the injection
		// area: the clean prefix is two ADDIs and that JAL.
		{name: "clean", words: []uint32{addi, addi}, limit: 100, want: 3},
		{name: "limit reached", words: []uint32{addi, addi}, limit: 3},
		{name: "limit above", words: []uint32{addi, addi}, limit: 4, want: 3},
		{name: "halts", limit: 100, words: []uint32{
			enc(isa.Inst{Op: isa.OpLUI, Rd: 30, Imm: int32(haltHi)}),
			enc(isa.Inst{Op: isa.OpSW, Rs1: 30, Imm: int32(p.Layout.HaltAddr - haltHi)}),
		}},
		{name: "traps", words: []uint32{0xffffffff}, limit: 100},
		{name: "panics", words: []uint32{0x0000405b}, limit: 100, quirk: isa.Quirks{CrashOnPattern: true}},
		{name: "writes memory", words: []uint32{enc(isa.Inst{Op: isa.OpSW, Imm: 0x200})}, limit: 100},
		{name: "reads the injection area", words: []uint32{enc(isa.Inst{Op: isa.OpLW, Rd: 5, Imm: inject + 8})}, limit: 100},
		{name: "enters the area off its start", words: []uint32{enc(isa.Inst{Op: isa.OpJAL, Imm: inject + 4})}, limit: 100},
	} {
		m := mem.New(p.Layout.MemBase, p.Layout.MemSize)
		for i, w := range tc.words {
			if err := m.Write32(uint32(4*i), w); err != nil {
				t.Fatal(err)
			}
		}
		for a := uint32(4 * len(tc.words)); a < inject; a += 4 {
			if err := m.Write32(a, enc(isa.Inst{Op: isa.OpJAL, Imm: int32(inject - a)})); err != nil {
				t.Fatal(err)
			}
		}
		m.Snapshot()
		s := &Simulator{Variant: &Variant{DecQuirks: tc.quirk}, Platform: p, Limit: tc.limit, eff: p.Cfg}
		s.attach(&template.Image{Platform: p, Mem: m, InjectAddr: inject}, &isa.Decoder{Quirks: tc.quirk})
		got := s.fastForward()
		if s.img.Mem.Dirty() {
			t.Errorf("%s: fastForward left the image dirty", tc.name)
		}
		switch {
		case tc.want == 0 && got != nil:
			t.Errorf("%s: got an entry state after %d instructions, want none", tc.name, got.insts)
		case tc.want != 0 && (got == nil || got.insts != tc.want || got.cpu.PC != inject):
			t.Errorf("%s: entry state %+v, want %d instructions up to %#x", tc.name, got, tc.want, inject)
		}
	}
}
