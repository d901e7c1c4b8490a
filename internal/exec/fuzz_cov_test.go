package exec_test

import (
	"slices"
	"testing"

	"rvnegtest/internal/coverage"
	"rvnegtest/internal/exec"
)

// FuzzExecPredecodeDifferential diffs the predecoded fast path against
// the classical decode loop (see predecodeDiff in fuzz_test.go): hart
// state, trap causes, memory, decoder panics, the hook's event and edge
// sequences, and the whole v3 coverage footprint of the run.
func FuzzExecPredecodeDifferential(f *testing.F) {
	exec.DiffSeeds(f)
	v3 := coverage.V3()
	f.Fuzz(func(t *testing.T, sel uint8, bs []byte) {
		slow, fast := coverage.NewCollector(v3), coverage.NewCollector(v3)
		exec.PredecodeDiff(t, sel, bs, slow, fast)
		if sfp, ffp := slow.Map.RunFootprint(), fast.Map.RunFootprint(); !slices.Equal(sfp, ffp) {
			t.Fatalf("coverage footprints diverged on %x:\nslow %v\nfast %v", bs, sfp, ffp)
		}
	})
}
