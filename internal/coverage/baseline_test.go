package coverage

import (
	"slices"
	"testing"

	"rvnegtest/internal/exec"
	"rvnegtest/internal/hart"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/sim"
	"rvnegtest/internal/template"
)

// fixedCounter is a Collector that also counts, by slot, the
// instructions of the prefix (slot 0) and the dump (slot 1) a simulator
// hands it.
type fixedCounter struct {
	*Collector
	insts [2]int
}

func (f *fixedCounter) Skip(key any, run func(exec.Hook), h *hart.Hart, slot int) bool {
	if slot >= 0 {
		n := &instCounter{}
		run(n)
		f.insts[slot] = n.n
	}
	return f.Collector.Skip(key, run, h, slot)
}

type instCounter struct{ n int }

func (c *instCounter) OnInst(*isa.Inst, *hart.Hart) { c.n++ }
func (c *instCounter) OnEdge(uint32)                {}

// TestBaselineFitsEveryPlatform: on every shipped platform and coverage
// configuration the first run that reaches dump: installs a baseline
// holding the prefix and the dump, and the next run counts against it.
// No baseline count exceeds the number of fixed instructions (a point is
// hit at most once per instruction), so uint8 counts are exact. The
// prefix records no live rule step, so the reset hart Skip compares it
// against costs nothing per run, while every rule collector's dump
// records some.
func TestBaselineFitsEveryPlatform(t *testing.T) {
	for _, v := range sim.All {
		for _, cfg := range []isa.Config{isa.RV32I, isa.RV32IMC, isa.RV32GC} {
			if !v.Supports(cfg) {
				continue
			}
			for _, fam := range []template.Family{template.FamilyUser, template.FamilyTrap} {
				s, err := sim.New(v, template.PlatformFor(fam, cfg))
				if err != nil {
					t.Fatal(err)
				}
				for _, name := range []string{"v0", "v1", "v2", "v3"} {
					label := v.Name + "/" + cfg.String() + "/" + fam.String() + "/" + name
					opts, _ := ByName(name)
					col := &fixedCounter{Collector: NewCollector(opts)}
					s.RunHooked(nil, col)
					m, prefix, dump := col.Map, col.insts[0], col.insts[1]
					if prefix == 0 || dump == 0 || m.parts == nil || len(m.parts[0]) == 0 {
						t.Fatalf("%s: no baseline (prefix %d, dump %d instructions)", label, prefix, dump)
					}
					top := 0
					for _, id := range m.baseIDs {
						top = max(top, int(m.base[id]))
					}
					if top == 0 || top > prefix+dump {
						t.Fatalf("%s: largest baseline count %d, %d+%d fixed instructions", label, top, prefix, dump)
					}
					if n := len(col.parts[0].steps); n != 0 {
						t.Errorf("%s: the prefix recorded %d live rule steps", label, n)
					}
					if n := len(col.parts[1].steps); (n == 0) != (opts.Rules == nil) {
						t.Errorf("%s: the dump recorded %d live rule steps", label, n)
					}
					m.MergeNew()
					s.RunHooked(nil, col)
					if !m.based() {
						t.Fatalf("%s: a run that skipped the prefix and the dump did not count against the baseline", label)
					}
					m.DiscardRun()
				}
			}
		}
	}
}

// TestBaselineOverflowInstallsNone: a baseline count above 255 installs
// no baseline, whatever was installed before, and runs then add the
// fixed hits themselves.
func TestBaselineOverflowInstallsNone(t *testing.T) {
	m := NewMap(8)
	m.rebase([][]hitCount{{{1, 200}, {2, 3}}, {{1, 55}}})
	if m.parts == nil || m.base[1] != 255 || !slices.Equal(m.baseIDs, []uint32{1, 2}) {
		t.Fatalf("255 must fit: parts %v, base %v, points %v", m.parts, m.base, m.baseIDs)
	}
	for _, hs := range [][][]hitCount{
		{{{1, 200}, {2, 3}}, {{1, 56}}},
		{{{4, 256}}, nil},
		{nil, {{5, 1 << 31}, {5, 1 << 31}}},
	} {
		m.rebase(hs)
		if m.parts != nil || len(m.baseIDs) != 0 || len(m.pending) != 0 || slices.ContainsFunc(m.base, func(n uint8) bool { return n != 0 }) {
			t.Fatalf("%v: parts %v, base %v, points %v", hs, m.parts, m.base, m.baseIDs)
		}
		if m.leave(0) {
			t.Fatal("a run skipped the prefix with no baseline installed")
		}
		m.Hit(1)
		if !m.MergeNew() && m.BucketBits() == 0 {
			t.Fatal("a plain run after the overflow did not merge")
		}
	}
}

// TestMapRecord: record returns exactly the hits its function added and
// leaves the map as it found it, whatever the pending run holds: a point
// touched before and hit again, a point whose count passed through zero
// and so is listed twice, one listed at zero, new points, and a run
// counted against a baseline.
func TestMapRecord(t *testing.T) {
	added := []uint32{3, 5, 5, 7, 2, 6, 7, 7}
	want := []hitCount{{2, 1}, {3, 1}, {5, 2}, {6, 1}, {7, 3}}
	for _, based := range []bool{false, true} {
		m := NewMap(8)
		if based {
			m.rebase([][]hitCount{{{3, 2}, {4, 1}}})
			if !m.leave(0) {
				t.Fatal("the run could not leave the baseline's part")
			}
		}
		m.Hit(3)
		m.Hit(5)
		m.Hit(6)
		m.subHits([]hitCount{{5, 1}, {5, 1}, {6, 1}})
		counts, touched := slices.Clone(m.counts), slices.Clone(m.touched)
		got := m.record(func() {
			for _, id := range added {
				m.Hit(id)
			}
		})
		slices.SortFunc(got, func(a, b hitCount) int { return int(a.id) - int(b.id) })
		if !slices.Equal(got, want) {
			t.Errorf("based %v: record = %v, want %v", based, got, want)
		}
		if !slices.Equal(m.counts, counts) || !slices.Equal(m.touched, touched) {
			t.Errorf("based %v: record left counts %v touched %v, want %v and %v", based, m.counts, m.touched, counts, touched)
		}
	}
}

// fakeRegion is one region of a simulator as a collector sees it: its
// key and the edges it takes.
type fakeRegion struct {
	key   any
	edges []uint32
}

// skip hands the region to col in slot, from h, with a run that counts
// its executions in runs, and feeds ref the region executed.
func (r *fakeRegion) skip(t *testing.T, col, ref *Collector, runs map[any]int, h *hart.Hart, slot int) {
	t.Helper()
	if !col.Skip(r.key, r.counted(runs), h, slot) {
		t.Fatalf("a v0 collector declined slot %d", slot)
	}
	r.hit(ref)
}

// counted returns the region's run, which counts its executions in runs.
func (r *fakeRegion) counted(runs map[any]int) func(exec.Hook) {
	return func(h exec.Hook) {
		runs[r.key]++
		r.hit(h)
	}
}

func (r *fakeRegion) hit(h exec.Hook) {
	for _, e := range r.edges {
		h.OnEdge(e)
	}
}

// fakeSim is a simulator's regions: its prefix, its dump and one
// handler path.
type fakeSim struct{ prefix, dump, path fakeRegion }

func newFakeSim(edge uint32) *fakeSim {
	return &fakeSim{
		prefix: fakeRegion{new(int), []uint32{edge, edge, edge + 1}},
		dump:   fakeRegion{new(int), []uint32{edge + 2, edge}},
		path:   fakeRegion{new(int), []uint32{edge + 3, edge + 3}},
	}
}

// run hands col a run that skips the prefix, takes traps handler paths
// and skips the dump, and feeds ref the same run executed.
func (f *fakeSim) run(t *testing.T, col, ref *Collector, runs map[any]int, traps int) {
	t.Helper()
	var h hart.Hart
	f.prefix.skip(t, col, ref, runs, &h, 0)
	for range traps {
		col.OnEdge(99) // the run's own code
		ref.OnEdge(99)
		f.path.skip(t, col, ref, runs, nil, -1)
	}
	f.dump.skip(t, col, ref, runs, &h, 1)
}

// TestSkipMemo: a collector runs each region once per key, whatever its
// slot, across prefix, dump and handler-path keys, and a run on the
// simulator of the run before counts against the baseline, also after
// switching back to an earlier simulator, whose baseline the memo
// rebuilds without running its regions again. Every run's footprint,
// MergeNew verdict and bucket bits equal a plain collector's that
// watched every region execute.
func TestSkipMemo(t *testing.T) {
	runs := map[any]int{}
	a, b := newFakeSim(10), newFakeSim(20)
	col, ref := NewCollector(V0()), NewCollector(V0())
	var prev *fakeSim
	for i, f := range []*fakeSim{a, a, b, b, a, a, b} {
		f.run(t, col, ref, runs, 1+i%2)
		if f == prev && !col.Map.based() {
			t.Fatalf("run %d: a run that skipped the prefix and the dump did not count against the baseline", i)
		}
		prev = f
		if got, want := col.Map.RunFootprint(), ref.Map.RunFootprint(); !slices.Equal(got, want) {
			t.Fatalf("run %d: footprint %v, want %v", i, got, want)
		}
		if got, want := col.Map.MergeNew(), ref.Map.MergeNew(); got != want || col.Map.BucketBits() != ref.Map.BucketBits() {
			t.Fatalf("run %d: MergeNew %v, want %v", i, got, want)
		}
	}
	if len(runs) != 6 {
		t.Errorf("%d regions ran, want 6", len(runs))
	}
	for _, n := range runs {
		if n != 1 {
			t.Errorf("a region ran %d times, want once per key", n)
		}
	}
}

// TestSkipDeclinesHartlessRegion: a collector with rules declines a
// region that comes with no hart (a handler path) without running it or
// touching its map, and takes a region that comes with one; a collector
// without rules takes both.
func TestSkipDeclinesHartlessRegion(t *testing.T) {
	runs := map[any]int{}
	f := newFakeSim(10)
	v3 := NewCollector(V3())
	if v3.Skip(f.path.key, f.path.counted(runs), nil, -1) || runs[f.path.key] != 0 || v3.Map.RunFootprint() != nil || len(v3.regions) != 0 {
		t.Fatalf("a v3 collector took a hart-less region (ran it %d times)", runs[f.path.key])
	}
	var h hart.Hart
	if !v3.Skip(f.prefix.key, f.prefix.counted(runs), &h, 0) || runs[f.prefix.key] != 1 {
		t.Fatal("a v3 collector declined the prefix")
	}
	if !NewCollector(V0()).Skip(f.path.key, f.path.counted(runs), nil, -1) || runs[f.path.key] != 1 {
		t.Fatal("a v0 collector declined a handler path")
	}
}
