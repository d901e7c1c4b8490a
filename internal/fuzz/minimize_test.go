package fuzz

import (
	"context"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"rvnegtest/internal/coverage"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/sim"
	"rvnegtest/internal/template"
)

func TestMinimizePreservesCoverage(t *testing.T) {
	cfg := smallConfig(coverage.V1(), 17)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Run(10000, 0)
	corpus := f.Corpus()
	if len(corpus) < 50 {
		t.Fatalf("corpus too small: %d", len(corpus))
	}
	min, err := Minimize(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(min) == 0 || len(min) > len(corpus) {
		t.Fatalf("minimized %d of %d", len(min), len(corpus))
	}
	full, err := CoverageBits(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CoverageBits(min, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != full {
		t.Errorf("minimized coverage %d != full %d", got, full)
	}
	// Minimization is idempotent.
	again, err := Minimize(min, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(min) {
		t.Errorf("second pass shrank %d -> %d", len(min), len(again))
	}
	t.Logf("minimize: %d -> %d cases at %d coverage bits", len(corpus), len(min), full)
}

// TestMinimizeDropsRedundant: duplicating the corpus must not change the
// minimized result, and a self-loop that times out (jal x0, 0), placed
// first and between the copies, is never kept and changes nothing else.
func TestMinimizeDropsRedundant(t *testing.T) {
	cfg := smallConfig(coverage.V1(), 19)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Run(5000, 0)
	corpus := f.Corpus()
	loop := binary.LittleEndian.AppendUint32(nil, isa.MustEncode(isa.Inst{Op: isa.OpJAL}))
	ref, err := sim.New(sim.Reference, template.PlatformFor(cfg.Family, cfg.ISA))
	if err != nil {
		t.Fatal(err)
	}
	if out := ref.Run(loop); !out.TimedOut {
		t.Fatalf("jal x0, 0: %+v, want a timeout", out)
	}
	doubled := append(append([][]byte{loop}, corpus...), loop)
	doubled = append(doubled, corpus...)
	a, err := Minimize(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Minimize(doubled, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != len(a) {
		t.Fatalf("doubled corpus minimized to %d, original to %d", len(b), len(a))
	}
	for i := range a {
		if string(b[i]) != string(a[i]) {
			t.Errorf("case %d differs", i)
		}
	}
}

// TestOneWorkerMinimizeKeepsEveryCase is why Campaign replays only a
// merge of two or more corpora: a fuzzer admits a case only when its
// run adds coverage to a map holding exactly the coverage of the cases
// before it, so Minimize keeps every case of one fuzzer's corpus, in
// order. It checks v3/user and v0/trap campaigns run plain, seeded with
// another seed's corpus, and checkpointed midway and resumed, each with
// the filter on and off. Without the filter, more than a hundred runs
// time out and their coverage is discarded (Map.DiscardRun).
func TestOneWorkerMinimizeKeepsEveryCase(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cov   coverage.Options
		fam   template.Family
		execs uint64 // enough for a hundred timeouts without the filter
	}{
		{"v3/user", coverage.V3(), template.FamilyUser, 20000},
		{"v0/trap", coverage.V0(), template.FamilyTrap, 10000},
	} {
		for _, noFilter := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Seed = 11
			cfg.Coverage = tc.cov
			cfg.Family = tc.fam
			cfg.DisableFilter = noFilter
			name := fmt.Sprintf("%s/no-filter=%t", tc.name, noFilter)
			t.Run(name, func(t *testing.T) {
				run := func(cfg Config, n uint64) *Fuzzer {
					f, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := f.Run(n, 0); err != nil {
						t.Fatal(err)
					}
					return f
				}
				check := func(kind string, f *Fuzzer) {
					t.Helper()
					corpus := f.Corpus()
					min, err := Minimize(corpus, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(min, corpus) {
						t.Errorf("%s: Minimize keeps %d of the corpus's %d cases, want all of them in order", kind, len(min), len(corpus))
					}
					st := f.Stats()
					if noFilter && st.Timeouts < 100 {
						t.Errorf("%s: %d timed-out runs, want at least 100 without the filter", kind, st.Timeouts)
					}
					t.Logf("%s: %d cases, %d timeouts, %d crashes", kind, len(corpus), st.Timeouts, st.Crashes)
				}

				plain := run(cfg, tc.execs)
				check("plain", plain)

				other := cfg
				other.Seed = cfg.Seed + 1
				seeded := cfg
				seeded.Seeds = run(other, tc.execs).Corpus()
				check("seeded", run(seeded, tc.execs))

				dir := t.TempDir()
				half := run(cfg, tc.execs/2)
				if err := half.SaveCheckpoint(dir); err != nil {
					t.Fatal(err)
				}
				resumed, err := Resume(cfg, dir)
				if err != nil {
					t.Fatal(err)
				}
				if err := resumed.Run(tc.execs, 0); err != nil {
					t.Fatal(err)
				}
				check("resumed", resumed)
				if !reflect.DeepEqual(resumed.Corpus(), plain.Corpus()) {
					t.Errorf("resumed corpus (%d cases) differs from the plain one (%d)", len(resumed.Corpus()), len(plain.Corpus()))
				}
			})
		}
	}
}

func TestParallelCampaign(t *testing.T) {
	cfg := smallConfig(coverage.V1(), 23)
	merged, stats, err := Campaign(context.Background(), cfg, CampaignConfig{Workers: 4, ExecsEach: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 4 {
		t.Fatalf("stats for %d workers", len(stats))
	}
	for i, st := range stats {
		if st.Execs != 4000 {
			t.Errorf("worker %d: %d execs", i, st.Execs)
		}
	}
	if len(merged) == 0 {
		t.Fatal("empty merged corpus")
	}
	// Determinism of the merged result.
	merged2, _, err := Campaign(context.Background(), cfg, CampaignConfig{Workers: 4, ExecsEach: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged2) != len(merged) {
		t.Fatalf("parallel campaign not deterministic: %d vs %d", len(merged), len(merged2))
	}
	for i := range merged {
		if string(merged[i]) != string(merged2[i]) {
			t.Fatalf("merged corpus differs at %d", i)
		}
	}
	// More workers reach at least as much coverage as one worker with the
	// same per-worker budget.
	single, _, err := Campaign(context.Background(), cfg, CampaignConfig{Workers: 1, ExecsEach: 4000})
	if err != nil {
		t.Fatal(err)
	}
	sBits, _ := CoverageBits(single, cfg)
	mBits, _ := CoverageBits(merged, cfg)
	if mBits < sBits {
		t.Errorf("4 workers reached %d bits < 1 worker's %d", mBits, sBits)
	}
}

// TestParallelCampaignDeterministic: for each worker count, two runs with
// the same (seed, workers, budget) triple produce byte-identical corpora.
func TestParallelCampaignDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 3
	for _, workers := range []int{1, 2, 8} {
		a, _, err := Campaign(context.Background(), cfg, CampaignConfig{Workers: workers, ExecsEach: 6000})
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := Campaign(context.Background(), cfg, CampaignConfig{Workers: workers, ExecsEach: 6000})
		if err != nil {
			t.Fatal(err)
		}
		if len(a) == 0 {
			t.Fatalf("workers=%d: empty corpus", workers)
		}
		if len(a) != len(b) {
			t.Fatalf("workers=%d: %d vs %d cases across runs", workers, len(a), len(b))
		}
		for i := range a {
			if string(a[i]) != string(b[i]) {
				t.Errorf("workers=%d: case %d differs across runs", workers, i)
			}
		}
	}
}
