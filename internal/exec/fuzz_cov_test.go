package exec_test

import (
	"slices"
	"testing"

	"rvnegtest/internal/coverage"
	"rvnegtest/internal/exec"
)

// FuzzExecDecodeMemoDifferential diffs an executor whose decode memo a
// second stream has warmed against a fresh one (see memoDiff in
// fuzz_test.go): hart state, trap causes, memory, decoder panics, the
// hook's event and edge sequences, and the whole v3 coverage footprint
// of the run.
func FuzzExecDecodeMemoDifferential(f *testing.F) {
	exec.DiffSeeds(f)
	v3 := coverage.V3()
	f.Fuzz(func(t *testing.T, sel uint8, bs, warm []byte) {
		cold, warmed := coverage.NewCollector(v3), coverage.NewCollector(v3)
		exec.MemoDiff(t, sel, bs, warm, cold, warmed)
		if cfp, wfp := cold.Map.RunFootprint(), warmed.Map.RunFootprint(); !slices.Equal(cfp, wfp) {
			t.Fatalf("coverage footprints diverged on %x:\ncold   %v\nwarmed %v", bs, cfp, wfp)
		}
	})
}
