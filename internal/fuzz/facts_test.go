package fuzz

import (
	"bytes"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rvnegtest/internal/analysis"
	"rvnegtest/internal/coverage"
	"rvnegtest/internal/filter"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/resilience"
	"rvnegtest/internal/template"
)

// userFacts returns the facts of a fresh user-mode analysis of bs.
func userFacts(bs []byte) []wordFacts {
	var a analysis.Analysis
	a.Analyze(bs, false)
	return readFacts(nil, &a, len(bs))
}

// checkStoredFacts fails unless every corpus entry of f passes the
// campaign's filter and carries the facts of a fresh user-mode analysis
// of its bytes.
func checkStoredFacts(t *testing.T, name string, f *Fuzzer) {
	t.Helper()
	flt := &filter.Filter{MaxLen: f.cfg.MaxLen, Trap: f.cfg.Family == template.FamilyTrap}
	for i, entry := range f.corpus {
		if res := flt.Check(entry); !res.Accepted {
			t.Fatalf("%s: corpus entry %d (%x) fails the campaign's filter: %v", name, i, entry, res)
		}
		want := userFacts(entry)
		if got := f.facts[f.cases[i].facts]; !slices.Equal(got, want) {
			t.Fatalf("%s: corpus entry %d (%x) stores facts %v, a fresh analysis gives %v", name, i, entry, got, want)
		}
	}
	t.Logf("%s: %d entries, %d distinct facts vectors", name, len(f.corpus), len(f.facts))
}

// TestStoredFactsMatchFreshAnalysis runs v3/user and v0/trap campaigns
// at seed 3 three ways: plain; seeded with inputs longer than the
// starting length limit of 8 bytes, so that instructionAware analyses
// those bases in place; and checkpointed, then resumed, so that Resume
// derives every entry's facts again. Every corpus entry must pass the
// campaign's filter and store the facts a fresh user-mode analysis
// gives it, and the resumed corpus must equal the plain one.
func TestStoredFactsMatchFreshAnalysis(t *testing.T) {
	for _, tc := range []struct {
		name string
		cov  coverage.Options
		fam  template.Family
	}{
		{"v3/user", coverage.V3(), template.FamilyUser},
		{"v0/trap", coverage.V0(), template.FamilyTrap},
	} {
		cfg := DefaultConfig()
		cfg.Seed = 3
		cfg.Coverage = tc.cov
		cfg.Family = tc.fam
		const execs = 60000

		plain, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := plain.Run(execs, 0); err != nil {
			t.Fatal(err)
		}
		checkStoredFacts(t, tc.name+" plain", plain)

		// A campaign whose length limit grows fast supplies the long seeds.
		long := cfg
		long.Seed = 4
		long.LenControl = 1
		prior, err := New(long)
		if err != nil {
			t.Fatal(err)
		}
		if err := prior.Run(20000, 0); err != nil {
			t.Fatal(err)
		}
		seeded := cfg
		for _, entry := range prior.Corpus() {
			if len(entry) > 8 {
				seeded.Seeds = append(seeded.Seeds, entry)
			}
		}
		f, err := New(seeded)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Run(execs, 0); err != nil {
			t.Fatal(err)
		}
		collected := 0
		for _, entry := range f.corpus {
			if len(entry) > 8 {
				collected++
			}
		}
		if collected == 0 {
			t.Fatalf("%s: none of %d seeds longer than 8 bytes joined the corpus", tc.name, len(seeded.Seeds))
		}
		t.Logf("%s seeded: %d of %d long seeds joined the corpus", tc.name, collected, len(seeded.Seeds))
		checkStoredFacts(t, tc.name+" seeded", f)

		dir := t.TempDir()
		if f, err = New(cfg); err != nil {
			t.Fatal(err)
		}
		if err := f.Run(execs/2, 0); err != nil {
			t.Fatal(err)
		}
		if err := f.SaveCheckpoint(dir); err != nil {
			t.Fatal(err)
		}
		if f, err = Resume(cfg, dir); err != nil {
			t.Fatal(err)
		}
		checkStoredFacts(t, tc.name+" resumed", f)
		if err := f.Run(execs, 0); err != nil {
			t.Fatal(err)
		}
		checkStoredFacts(t, tc.name+" resumed and run", f)
		if !slices.EqualFunc(f.corpus, plain.corpus, bytes.Equal) {
			t.Fatalf("%s: the resumed corpus (%d entries) differs from the plain one (%d)", tc.name, len(f.corpus), len(plain.corpus))
		}
	}
}

// TestResumeRefusesUnfilteredCorpus edits a v3/user checkpoint so that
// one corpus entry is a CSR instruction, which the user family's filter
// drops. A candidate identical to its corpus entry is counted as
// accepted without a check, so Resume refuses that corpus, naming the
// entry and the drop reason. With the filter disabled nothing is
// checked, and the same edit resumes.
func TestResumeRefusesUnfilteredCorpus(t *testing.T) {
	csr := isa.MustEncode(isa.Inst{Op: isa.OpCSRRW, Rs1: 5, CSR: 0x300})
	for _, nofilter := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Seed = 3
		cfg.DisableFilter = nofilter
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Run(2000, 0); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := f.SaveCheckpoint(dir); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, stateFile)
		var st checkpointState
		if _, err := resilience.LoadJSON(path, checkpointFormat, checkpointVersion, &st); err != nil {
			t.Fatal(err)
		}
		const k = 5
		if len(st.Cases) <= k {
			t.Fatalf("checkpoint holds %d cases, want more than %d", len(st.Cases), k)
		}
		st.Cases[k].Input = []byte{byte(csr), byte(csr >> 8), byte(csr >> 16), byte(csr >> 24)}
		if err := resilience.SaveJSON(path, checkpointFormat, checkpointVersion, st); err != nil {
			t.Fatal(err)
		}
		_, err = Resume(cfg, dir)
		if nofilter {
			if err != nil {
				t.Fatalf("Resume without the filter refused the edited corpus: %v", err)
			}
			continue
		}
		if err == nil {
			t.Fatal("Resume accepted a corpus entry the filter drops")
		}
		for _, want := range []string{"corpus entry 5", analysis.ReasonForbidden.String()} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("Resume error %q does not name %q", err, want)
			}
		}
	}
}

// FuzzMutatorFactsDifferential: instructionAware given its base's stored
// facts (readFacts of a fresh user-mode analysis of the base) builds
// exactly the bytes it builds analysing its copy of the base in place,
// and leaves its RNG at the same point, for bases of 0–64 bytes and
// length limits of 4–64. A base longer than the limit is truncated, so
// its stored facts do not describe the copy. Each mutator mutates the
// base several times over, reusing its scratch.
func FuzzMutatorFactsDifferential(f *testing.F) {
	words := func(insts ...isa.Inst) []byte {
		var bs []byte
		for _, in := range insts {
			w := isa.MustEncode(in)
			bs = append(bs, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
		}
		return bs
	}
	addi := isa.Inst{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: 1}
	lw30 := isa.Inst{Op: isa.OpLW, Rd: 7, Rs1: 30, Imm: 8}
	sw31 := isa.Inst{Op: isa.OpSW, Rs1: 31, Rs2: 6, Imm: -4}
	mv := isa.Inst{Op: isa.OpADDI, Rd: 9, Rs1: 30}
	beq := isa.Inst{Op: isa.OpBEQ, Rs1: 1, Rs2: 2, Imm: 8}
	clw, _ := isa.Compress(isa.Inst{Op: isa.OpLW, Rd: 8, Rs1: 9, Imm: 4})
	add := func(base []byte, maxLen int) {
		for seed := int64(0); seed < 6; seed++ {
			f.Add(base, uint8(maxLen-4), seed)
		}
	}
	add([]byte{}, 4)
	add([]byte{0x13, 0x05, 0x15}, 8)
	add(make([]byte, 16), 64)
	// Accesses beyond the limit: the whole base's facts keep x30, x31
	// and x9 live where the truncated copy's do not.
	add(words(addi, addi, lw30, sw31), 4)
	add(words(addi, addi, lw30, sw31), 8)
	add(append(words(mv, addi), byte(clw), byte(clw>>8)), 8)
	add(words(mv, beq, lw30, addi, sw31, isa.Inst{Op: isa.OpLW, Rd: 1, Rs1: 9}), 12)
	add(words(mv, beq, lw30, addi, sw31, isa.Inst{Op: isa.OpLW, Rd: 1, Rs1: 9}), 64)
	// Twelve accesses past a 16-byte limit, on twelve base registers:
	// the whole base's facts steer most injected destinations.
	loads := []isa.Inst{addi, addi, addi, addi}
	for r := isa.Reg(1); r <= 12; r++ {
		loads = append(loads, isa.Inst{Op: isa.OpLW, Rs1: r})
	}
	for maxLen := 8; maxLen <= 16; maxLen += 4 {
		add(words(loads...), maxLen)
	}
	f.Fuzz(func(t *testing.T, base []byte, limit uint8, seed int64) {
		base = base[:min(len(base), 64)]
		maxLen := 4 + int(limit)%61
		stored, inPlace := newMutator(newRng(seed)), newMutator(newRng(seed))
		facts := userFacts(base)
		for round := 0; round < 8; round++ {
			got := stored.instructionAware(base, facts, maxLen)
			want := inPlace.instructionAware(base, nil, maxLen)
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d, base %x, maxLen %d: stored facts built %x, in-place analysis %x", round, base, maxLen, got, want)
			}
			if a, b := stored.rng.Int63(), inPlace.rng.Int63(); a != b {
				t.Fatalf("round %d, base %x, maxLen %d: the RNGs diverged", round, base, maxLen)
			}
		}
	})
}
