package bench

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"

	"rvnegtest/internal/sim"
)

// toy is a workload size small enough for a smoke test.
var toy = Size{
	FuzzExecs:          3000,
	GenExecs:           3000,
	JobFuzzExecs:       2000,
	JobCheckpointEvery: 1000,
	JobGenExecs:        2000,
	FuzzSetups:         2,
	FleetSetups:        1,
	DaemonSetups:       2,
	MicroInputs:        100,
}

func runToy(t *testing.T, workload string, trace bool, wrap func(sim.HookedSim) sim.HookedSim) *Result {
	t.Helper()
	res, err := Run(context.Background(), workload, Options{
		Seed:       5,
		Reps:       2,
		Trace:      trace,
		Size:       toy,
		Dir:        t.TempDir(),
		wrapTarget: wrap,
	})
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	return res
}

// TestBenchmarkJSONMatchesLedger keeps BENCHMARK.json at the repository
// root in step with the metric definitions the code reports.
func TestBenchmarkJSONMatchesLedger(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []Def `json:"end_to_end"`
		PerLayer  []Def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, Workloads) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, Workloads)
	}
	if !reflect.DeepEqual(b.EndToEnd, EndToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %+v, code has %+v", b.EndToEnd, EndToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, PerLayer) {
		t.Errorf("BENCHMARK.json per_layer %+v, code has %+v", b.PerLayer, PerLayer)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, d := range append(append([]Def(nil), EndToEnd...), PerLayer...) {
		if !valid.MatchString(d.Name) {
			t.Errorf("metric name %q is not a valid ledger name", d.Name)
		}
	}
}

// TestWorkloadsAtToySize runs every workload untraced and traced: each
// must pass its checks, emit every ledger metric of its mode with the
// ledger's unit, and produce the same outputs whether traced or not.
func TestWorkloadsAtToySize(t *testing.T) {
	for _, w := range Workloads {
		t.Run(w, func(t *testing.T) {
			var outs []Outputs
			for _, trace := range []bool{false, true} {
				res := runToy(t, w, trace, nil)
				for _, c := range res.Checks {
					if !c.OK {
						t.Errorf("trace %v: check %s failed: %s", trace, c.Name, c.Detail)
					}
				}
				if res.Attempted == 0 || res.Failed != 0 {
					t.Errorf("trace %v: attempted %d, failed %d", trace, res.Attempted, res.Failed)
				}
				for _, d := range Ledger(trace) {
					if s, ok := res.Metrics[d.Name]; !ok || s.Unit != d.Unit {
						t.Errorf("trace %v: metric %s = %+v, want unit %s", trace, d.Name, s, d.Unit)
					}
				}
				outs = append(outs, res.Outputs)
			}
			if !sameOutputs(outs[0], outs[1]) {
				t.Errorf("traced outputs %+v differ from untraced %+v", outs[1], outs[0])
			}
		})
	}
}

// TestFaultyTargetErrorRate injects panics into the foundation simulator
// on a seeded schedule: every injected panic, and nothing else, must be
// counted as a failed execution.
func TestFaultyTargetErrorRate(t *testing.T) {
	plan := sim.SeededSchedule(11, 0.02, 0, 0)
	panics := 0
	res := runToy(t, FuzzV3User, false, func(s sim.HookedSim) sim.HookedSim {
		return &sim.Faulty{Inner: s, Plan: func(bs []byte) sim.Fault {
			f := plan(bs)
			if f == sim.FaultPanic {
				panics++
			}
			return f
		}}
	})
	if panics == 0 {
		t.Fatal("schedule injected no panic; raise its probability")
	}
	if res.Failed != uint64(panics) || res.Attempted != 2*toy.FuzzExecs {
		t.Errorf("attempted %d, failed %d; want %d, %d", res.Attempted, res.Failed, 2*toy.FuzzExecs, panics)
	}
	if !res.Correct() {
		t.Errorf("checks failed under deterministic faults: %+v", res.Checks)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 3})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}
