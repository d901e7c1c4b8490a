package fuzz

import (
	"context"
	"reflect"
	"testing"

	"rvnegtest/internal/coverage"
	"rvnegtest/internal/template"
)

// TestTrapCampaignBitIdentical extends the campaign determinism guarantee
// to the trap family: for workers in {1, 2, 8}, two independent
// trap-family campaigns produce exactly the same corpus and
// deterministic stats.
func TestTrapCampaignBitIdentical(t *testing.T) {
	run := func(workers int) ([][]byte, []string) {
		cfg := smallConfig(coverage.V1(), 17)
		cfg.Family = template.FamilyTrap
		corpus, stats, err := Campaign(context.Background(), cfg, CampaignConfig{Workers: workers, ExecsEach: 3000})
		if err != nil {
			t.Fatal(err)
		}
		det := make([]string, len(stats))
		for i, s := range stats {
			det[i] = mustJSON(t, s.Deterministic())
		}
		return corpus, det
	}
	for _, workers := range []int{1, 2, 8} {
		firstCorpus, firstStats := run(workers)
		secondCorpus, secondStats := run(workers)
		if len(firstCorpus) == 0 {
			t.Fatalf("workers=%d: empty corpus", workers)
		}
		if !reflect.DeepEqual(firstCorpus, secondCorpus) {
			t.Fatalf("workers=%d: trap corpus differs between runs: %d vs %d cases",
				workers, len(firstCorpus), len(secondCorpus))
		}
		if !reflect.DeepEqual(firstStats, secondStats) {
			t.Fatalf("workers=%d: deterministic stats differ between runs:\n first:  %v\n second: %v",
				workers, firstStats, secondStats)
		}
	}
}

// TestTrapCampaignDiffersFromUser: the two families explore different
// spaces — a trap campaign's corpus is not the user campaign's corpus
// under an identical (seed, budget) pair. This guards against the family
// knob silently not reaching the filter or the platform.
func TestTrapCampaignDiffersFromUser(t *testing.T) {
	run := func(fam template.Family) [][]byte {
		cfg := smallConfig(coverage.V1(), 17)
		cfg.Family = fam
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Run(3000, 0); err != nil {
			t.Fatal(err)
		}
		return f.Corpus()
	}
	if reflect.DeepEqual(run(template.FamilyUser), run(template.FamilyTrap)) {
		t.Fatal("trap-family campaign reproduced the user-family corpus exactly")
	}
}

// TestTrapFingerprintBindsFamily: a checkpoint written by a trap campaign
// must not resume a user campaign (and vice versa); the user family keeps
// its historical fingerprint so existing checkpoints stay valid.
func TestTrapFingerprintBindsFamily(t *testing.T) {
	user := smallConfig(coverage.V1(), 17)
	trap := user
	trap.Family = template.FamilyTrap
	if user.Fingerprint() == trap.Fingerprint() {
		t.Fatal("fingerprint ignores the family: a checkpoint could resume across families")
	}
	if got := trap.Fingerprint(); got != user.Fingerprint()+" family=trap" {
		t.Errorf("trap fingerprint %q does not extend the user fingerprint", got)
	}
}
