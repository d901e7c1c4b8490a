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

// fixedCounter is a Collector that also counts the instructions of the
// prefix and the dump a simulator hands it.
type fixedCounter struct {
	*Collector
	prefix, dump int
}

func (f *fixedCounter) SkipPrefix(key any, run func(exec.Hook)) {
	n := &instCounter{}
	run(n)
	f.prefix = n.n
	f.Collector.SkipPrefix(key, run)
}

func (f *fixedCounter) SkipExit(key any, run func(exec.Hook), h *hart.Hart) {
	n := &instCounter{}
	run(n)
	f.dump = n.n
	f.Collector.SkipExit(key, run, h)
}

type instCounter struct{ n int }

func (c *instCounter) OnInst(*isa.Inst, *hart.Hart) { c.n++ }
func (c *instCounter) OnEdge(uint32)                {}

// TestBaselineFitsEveryPlatform: on every shipped platform and coverage
// configuration the first run that reaches dump: installs a baseline
// holding the prefix and the dump, and the next run counts against it.
// No baseline count exceeds the number of fixed instructions (a point is
// hit at most once per instruction), so uint8 counts are exact.
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
					m := col.Map
					if col.prefix == 0 || col.dump == 0 || !m.hasBase || len(m.prefix) == 0 {
						t.Fatalf("%s: no baseline (prefix %d, dump %d instructions)", label, col.prefix, col.dump)
					}
					top := 0
					for _, id := range m.baseIDs {
						top = max(top, int(m.base[id]))
					}
					if top == 0 || top > col.prefix+col.dump {
						t.Fatalf("%s: largest baseline count %d, %d+%d fixed instructions", label, top, col.prefix, col.dump)
					}
					m.MergeNew()
					s.RunHooked(nil, col)
					if m.run != runBased {
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
	m.rebase([]hitCount{{1, 200}, {2, 3}}, []hitCount{{1, 55}})
	if !m.hasBase || m.base[1] != 255 || !slices.Equal(m.baseIDs, []uint32{1, 2}) {
		t.Fatalf("255 must fit: installed %v, base %v, points %v", m.hasBase, m.base, m.baseIDs)
	}
	for _, hs := range [][2][]hitCount{
		{{{1, 200}, {2, 3}}, {{1, 56}}},
		{{{4, 256}}, nil},
		{nil, {{5, 1 << 31}, {5, 1 << 31}}},
	} {
		m.rebase(hs[0], hs[1])
		if m.hasBase || len(m.baseIDs) != 0 || len(m.pending) != 0 || m.prefix != nil || slices.ContainsFunc(m.base, func(n uint8) bool { return n != 0 }) {
			t.Fatalf("%v: installed %v, base %v, points %v", hs, m.hasBase, m.base, m.baseIDs)
		}
		if m.skipPrefix() {
			t.Fatal("a run skipped the prefix with no baseline installed")
		}
		m.Hit(1)
		if !m.MergeNew() && m.BucketBits() == 0 {
			t.Fatal("a plain run after the overflow did not merge")
		}
	}
}

// TestSkipTrapMemo: a collector without rules runs a trap-handler path
// once per key and adds its recorded hits on every call, so its
// footprint equals a plain collector's that watched every execution; a
// collector with rules declines without running the path or touching
// its map.
func TestSkipTrapMemo(t *testing.T) {
	runs := 0
	path := func(h exec.Hook) {
		for _, e := range []uint32{3, 3, 9} {
			h.OnEdge(e)
		}
	}
	run := func(h exec.Hook) { runs++; path(h) }
	a, b := new(int), new(int)
	col, ref := NewCollector(V0()), NewCollector(V0())
	for _, key := range []any{a, a, b, a} {
		if !col.SkipTrap(key, run) {
			t.Fatal("a v0 collector declined a handler path")
		}
		path(ref)
	}
	if runs != 2 {
		t.Errorf("the paths ran %d times, want once per key", runs)
	}
	if got, want := col.Map.RunFootprint(), ref.Map.RunFootprint(); !slices.Equal(got, want) {
		t.Errorf("footprint %v, want %v", got, want)
	}
	v3 := NewCollector(V3())
	if v3.SkipTrap(a, run) || runs != 2 || len(v3.Map.RunFootprint()) != 0 {
		t.Errorf("a v3 collector took the path (ran it %d times in all)", runs)
	}
}
