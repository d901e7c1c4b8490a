package fuzz

import (
	"context"
	"encoding/binary"
	"slices"
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

// TestMinimizeDropsRedundant: duplicating the corpus must not grow the
// minimized result.
func TestMinimizeDropsRedundant(t *testing.T) {
	cfg := smallConfig(coverage.V1(), 19)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Run(5000, 0)
	corpus := f.Corpus()
	doubled := append(append([][]byte(nil), corpus...), corpus...)
	a, err := Minimize(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bcases, err := Minimize(doubled, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(bcases) != len(a) {
		t.Errorf("doubled corpus minimized to %d, original to %d", len(bcases), len(a))
	}
}

func TestParallelCampaign(t *testing.T) {
	cfg := smallConfig(coverage.V1(), 23)
	merged, stats, err := Campaign(context.Background(), cfg, CampaignConfig{Workers: 4, ExecsEach: 4000, Minimize: true})
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
	merged2, _, err := Campaign(context.Background(), cfg, CampaignConfig{Workers: 4, ExecsEach: 4000, Minimize: true})
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
	single, _, err := Campaign(context.Background(), cfg, CampaignConfig{Workers: 1, ExecsEach: 4000, Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	sBits, _ := CoverageBits(single, cfg)
	mBits, _ := CoverageBits(merged, cfg)
	if mBits < sBits {
		t.Errorf("4 workers reached %d bits < 1 worker's %d", mBits, sBits)
	}
}

// TestMinimizeParallelBitIdentical: the sharded replay must keep exactly
// the same subset in the same order as the serial Minimize, for any
// worker count: 3 does not divide the case count, and the cases include
// a self-loop that times out, whose nil footprint the streamed merge
// must take in its turn.
func TestMinimizeParallelBitIdentical(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 7
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Run(30000, 0)
	loop := binary.LittleEndian.AppendUint32(nil, isa.MustEncode(isa.Inst{Op: isa.OpJAL}))
	ref, err := sim.New(sim.Reference, template.PlatformFor(cfg.Family, cfg.ISA))
	if err != nil {
		t.Fatal(err)
	}
	if out := ref.Run(loop); !out.TimedOut {
		t.Fatalf("jal x0, 0: %+v, want a timeout", out)
	}
	// Duplicate the corpus so minimization has real work to do.
	cases := append(append([][]byte{loop}, f.Corpus()...), f.Corpus()...)
	cases = slices.Insert(cases, len(cases)/2, loop)
	if len(cases)%3 == 0 {
		cases = append(cases, loop)
	}
	want, err := Minimize(cases, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || len(want) >= len(cases) {
		t.Fatalf("degenerate minimization: %d -> %d", len(cases), len(want))
	}
	for _, workers := range []int{1, 2, 3, 8} {
		got, err := MinimizeParallel(cases, cfg, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: kept %d cases, serial kept %d", workers, len(got), len(want))
		}
		for i := range want {
			if string(got[i]) != string(want[i]) {
				t.Errorf("workers=%d: case %d differs", workers, i)
			}
		}
	}
}

// TestParallelCampaignDeterministic: for each worker count, two runs with
// the same (seed, workers, budget) triple produce byte-identical corpora.
func TestParallelCampaignDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 3
	for _, workers := range []int{1, 2, 8} {
		a, _, err := Campaign(context.Background(), cfg, CampaignConfig{Workers: workers, ExecsEach: 6000, Minimize: true})
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := Campaign(context.Background(), cfg, CampaignConfig{Workers: workers, ExecsEach: 6000, Minimize: true})
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
