package compliance

import (
	"context"
	"reflect"
	"testing"
	"time"

	"rvnegtest/internal/obs"
	"rvnegtest/internal/sim"
)

// TestComplianceBatchReportBitIdentical is the compliance-side
// determinism guarantee of batched lockstep execution: for every worker
// count and batch size, the rendered table and the JSON report are
// byte-identical to the scalar engine's.
func TestComplianceBatchReportBitIdentical(t *testing.T) {
	suite := handSuite()
	ref := DefaultRunner()
	want, err := ref.Run(suite)
	if err != nil {
		t.Fatal(err)
	}
	wantText := want.Render()
	wantJSON, err := want.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		for _, batch := range []int{4, 8} {
			r := DefaultRunner()
			r.Workers = workers
			r.Batch = batch
			got, err := r.Run(suite)
			if err != nil {
				t.Fatalf("workers=%d batch=%d: %v", workers, batch, err)
			}
			if got.Render() != wantText {
				t.Errorf("workers=%d batch=%d: rendered report differs from scalar", workers, batch)
			}
			gotJSON, err := got.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if string(gotJSON) != string(wantJSON) {
				t.Errorf("workers=%d batch=%d: JSON report differs from scalar", workers, batch)
			}
		}
	}
}

// TestComplianceBatchCrossResume checks that Batch stays outside the
// checkpoint fingerprint: a run checkpointed batched must resume
// cleanly scalar (and vice versa) and still produce the report of an
// uninterrupted scalar run.
func TestComplianceBatchCrossResume(t *testing.T) {
	suite := handSuite()
	plain := DefaultRunner()
	plain.Workers = 1
	want, err := plain.Run(suite)
	if err != nil {
		t.Fatal(err)
	}

	for _, firstBatch := range []int{0, 4} {
		dir := t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		first := DefaultRunner()
		first.Workers = 1
		first.Batch = firstBatch
		first.Progress = func(ev ProgressEvent) {
			if ev.Config == first.Configs[0] && ev.Sim == first.SUTs[len(first.SUTs)-1].Name {
				cancel()
			}
		}
		_, err = first.RunResumable(ctx, suite, dir)
		cancel()
		if err != nil && err != ErrInterrupted {
			t.Fatal(err)
		}

		second := DefaultRunner()
		second.Workers = 1
		second.Batch = 4 - firstBatch
		got, err := second.RunResumable(context.Background(), suite, dir)
		if err != nil {
			t.Fatalf("resume across batch ablation (first=%d): %v", firstBatch, err)
		}
		if !reflect.DeepEqual(want.Cells, got.Cells) || !reflect.DeepEqual(want.Skipped, got.Skipped) {
			t.Fatalf("first=%d: cross-resumed report differs from uninterrupted scalar run", firstBatch)
		}
	}
}

// TestComplianceBatchFaultFallbackBitIdentical injects input-keyed
// faults (a panic on one case, a wedge on another) into one SUT and
// checks the batched engine degrades exactly like the scalar one: a
// poisoned batch is abandoned and its chunk rerun case by case, so the
// harness-fault classification, breaker behaviour and every other
// simulator's cells match the scalar report bit for bit.
func TestComplianceBatchFaultFallbackBitIdentical(t *testing.T) {
	suite := handSuite()
	release := make(chan struct{})
	defer close(release)
	plan := func(bs []byte) sim.Fault {
		switch {
		case reflect.DeepEqual(bs, suite.Cases[1]):
			return sim.FaultPanic
		case reflect.DeepEqual(bs, suite.Cases[6]):
			return sim.FaultWedge
		}
		return sim.FaultNone
	}
	run := func(batch int) *Report {
		r := DefaultRunner()
		r.Workers = 1
		r.Batch = batch
		r.CaseTimeout = 50 * time.Millisecond
		r.NewSim = faultySUTFactory("Spike", plan, "decoder crash: batch-era injected", release)
		rep, err := r.Run(suite)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	want := run(0)
	if !want.Degraded() {
		t.Fatal("fault schedule injected nothing; the fallback path was not exercised")
	}
	got := run(4)
	if got.Render() != want.Render() {
		t.Fatalf("batched degraded report differs from scalar:\n--- scalar ---\n%s\n--- batch ---\n%s",
			want.Render(), got.Render())
	}
	if !reflect.DeepEqual(want.Cells, got.Cells) || !reflect.DeepEqual(want.Skipped, got.Skipped) {
		t.Fatal("batched cells differ from scalar across the fault fallback")
	}
}

// TestComplianceBatchPredecodeCounters: the decode-cache counter totals
// must be identical with batching on or off and across worker counts —
// per-lane deltas fold into the same campaign totals the scalar path
// produces.
func TestComplianceBatchPredecodeCounters(t *testing.T) {
	suite := handSuite()
	read := func(reg *obs.Registry) [3]uint64 {
		return [3]uint64{
			reg.Counter("rvnegtest_compliance_predecode_hits_total").Value(),
			reg.Counter("rvnegtest_compliance_predecode_misses_total").Value(),
			reg.Counter("rvnegtest_compliance_predecode_invalidations_total").Value(),
		}
	}
	run := func(workers, batch int) [3]uint64 {
		r := DefaultRunner()
		r.Workers = workers
		r.Batch = batch
		r.Obs = obs.NewRegistry()
		if _, err := r.Run(suite); err != nil {
			t.Fatal(err)
		}
		return read(r.Obs)
	}
	scalar := run(1, 0)
	if scalar[0] == 0 {
		t.Error("predecode enabled but hit counter is zero")
	}
	for _, workers := range []int{1, 2, 8} {
		for _, batch := range []int{0, 4} {
			if workers == 1 && batch == 0 {
				continue
			}
			if got := run(workers, batch); got != scalar {
				t.Errorf("workers=%d batch=%d: predecode counters %v differ from scalar %v",
					workers, batch, got, scalar)
			}
		}
	}
}
