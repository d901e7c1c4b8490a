package compliance

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"rvnegtest/internal/isa"
	"rvnegtest/internal/sim"
	"rvnegtest/internal/template"
)

func TestShardRanges(t *testing.T) {
	for _, tc := range []struct {
		n, workers int
		want       []shard
	}{
		{10, 1, []shard{{0, 10}}},
		{10, 3, []shard{{0, 4}, {4, 7}, {7, 10}}},
		{2, 4, []shard{{0, 1}, {1, 2}, {2, 2}, {2, 2}}},
		{0, 2, []shard{{0, 0}, {0, 0}}},
	} {
		got := shardRanges(tc.n, tc.workers)
		if len(got) != len(tc.want) {
			t.Fatalf("shardRanges(%d,%d) = %v", tc.n, tc.workers, got)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("shardRanges(%d,%d)[%d] = %v, want %v", tc.n, tc.workers, i, got[i], tc.want[i])
			}
		}
		// Shards must partition [0, n) contiguously.
		lo := 0
		for _, s := range got {
			if s.lo != lo || s.hi < s.lo {
				t.Errorf("shardRanges(%d,%d): non-contiguous shard %v", tc.n, tc.workers, s)
			}
			lo = s.hi
		}
		if lo != tc.n {
			t.Errorf("shardRanges(%d,%d): covers [0,%d)", tc.n, tc.workers, lo)
		}
	}
}

// TestParallelRunnerBitIdentical is the engine's core guarantee: any
// worker count produces a report byte-identical to one worker's —
// rendered table, JSON (including per-cell categories, examples and
// skipped counts), everything.
func TestParallelRunnerBitIdentical(t *testing.T) {
	suite := handSuite()
	want, err := DefaultRunner().Run(suite)
	if err != nil {
		t.Fatal(err)
	}
	wantText := want.Render()
	wantJSON, err := want.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8, 32} {
		r := DefaultRunner()
		r.Workers = workers
		got, err := r.Run(suite)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if text := got.Render(); text != wantText {
			t.Errorf("workers=%d: render differs\none worker:\n%s\nsharded:\n%s", workers, wantText, text)
		}
		raw, err := got.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != string(wantJSON) {
			t.Errorf("workers=%d: JSON differs\none worker:\n%s\nsharded:\n%s", workers, wantJSON, raw)
		}
	}
}

// TestParallelRunnerBitIdenticalWithSkips repeats the identity check on a
// runner whose reference fails on some cases (sail-riscv crashes and
// loops on crafted patterns), exercising the skip-accounting path across
// shard boundaries.
func TestParallelRunnerBitIdenticalWithSkips(t *testing.T) {
	suite := skippingSuite()
	one := &Runner{Ref: sim.Sail, SUTs: []*sim.Variant{sim.Reference, sim.Spike}, Configs: []isa.Config{isa.RV32I, isa.RV32IMC}}
	want, err := one.Run(suite)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := want.JSON()
	for _, workers := range []int{2, 5} {
		r := &Runner{Ref: sim.Sail, SUTs: []*sim.Variant{sim.Reference, sim.Spike}, Configs: []isa.Config{isa.RV32I, isa.RV32IMC}, Workers: workers}
		got, err := r.Run(suite)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Render() != want.Render() {
			t.Errorf("workers=%d: render differs\n%s\nvs\n%s", workers, want.Render(), got.Render())
		}
		raw, _ := got.JSON()
		if string(raw) != string(wantJSON) {
			t.Errorf("workers=%d: JSON differs", workers)
		}
	}
}

func TestParallelRunnerStats(t *testing.T) {
	suite := handSuite()
	r := DefaultRunner()
	r.Workers = 4
	if _, err := r.Run(suite); err != nil {
		t.Fatal(err)
	}
	st := r.Stats
	if st.Workers != 4 || len(st.PerWorker) != 4 {
		t.Fatalf("stats workers: %+v", st)
	}
	total := 0
	for _, w := range st.PerWorker {
		total += w.Execs
	}
	if total != st.Execs || st.Execs == 0 {
		t.Errorf("per-worker execs sum %d != total %d", total, st.Execs)
	}
	// Every (config, supported sim) pair runs every case, plus one
	// reference pass per config; no skips occur in the default setup.
	want := 0
	for _, cfg := range r.Configs {
		want += len(suite.Cases) // reference
		for _, v := range r.SUTs {
			if v.Supports(cfg) {
				want += len(suite.Cases)
			}
		}
	}
	if st.Execs != want {
		t.Errorf("execs = %d, want %d", st.Execs, want)
	}
	if st.Duration <= 0 || st.CasesPerSec <= 0 {
		t.Errorf("throughput not populated: %+v", st)
	}
	if st.String() == "" {
		t.Error("empty stats rendering")
	}

	// One worker fills the same stats shape.
	s := DefaultRunner()
	if _, err := s.Run(suite); err != nil {
		t.Fatal(err)
	}
	if s.Stats.Workers != 1 || s.Stats.Execs != want {
		t.Errorf("one-worker stats: %+v", s.Stats)
	}
}

func TestParallelRunnerProgress(t *testing.T) {
	suite := handSuite()
	r := DefaultRunner()
	r.Workers = 3
	var mu sync.Mutex
	refShards, sutShards := 0, 0
	r.Progress = func(ev ProgressEvent) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Sim == "" {
			refShards++
		} else {
			sutShards++
		}
		if ev.Lo > ev.Hi || ev.Hi > len(suite.Cases) {
			t.Errorf("bad shard range in event: %+v", ev)
		}
	}
	if _, err := r.Run(suite); err != nil {
		t.Fatal(err)
	}
	if want := 3 * len(r.Configs); refShards != want {
		t.Errorf("reference shard events = %d, want %d", refShards, want)
	}
	supported := 0
	for _, cfg := range r.Configs {
		for _, v := range r.SUTs {
			if v.Supports(cfg) {
				supported++
			}
		}
	}
	if want := 3 * supported; sutShards != want {
		t.Errorf("SUT shard events = %d, want %d", sutShards, want)
	}
}

func TestWorkerCount(t *testing.T) {
	for _, tc := range []struct{ field, min int }{{0, 1}, {1, 1}, {7, 7}} {
		r := &Runner{Workers: tc.field}
		if got := r.workerCount(); got != tc.min {
			t.Errorf("Workers=%d resolves to %d", tc.field, got)
		}
	}
	if got := (&Runner{Workers: -1}).workerCount(); got < 1 {
		t.Errorf("auto workers = %d", got)
	}
}

// runOnly hides every method of a simulator but Run, as a timing
// decorator that wraps Run alone does, so the engine takes its Run
// fallback: each run returns a fresh signature.
type runOnly struct{ s sim.Sim }

func (r runOnly) Run(bs []byte) sim.Outcome { return r.s.Run(bs) }

// TestRunOnlySimMatchesDefault: a runner whose simulators have only Run
// renders the default runner's report byte for byte, text and JSON, on
// user and trap suites at one and two workers.
func TestRunOnlySimMatchesDefault(t *testing.T) {
	for _, suite := range []*Suite{handSuite(), trapSuite()} {
		for _, workers := range []int{1, 2} {
			def, fallback := DefaultRunner(), DefaultRunner()
			def.Workers, fallback.Workers = workers, workers
			fallback.NewSim = func(v *sim.Variant, p template.Platform) (sim.Sim, error) {
				s, err := sim.New(v, p)
				if err != nil {
					return nil, err
				}
				return runOnly{s}, nil
			}
			want, err := def.Run(suite)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fallback.Run(suite)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%v suite, %d workers", suite.Family, workers)
			if got.Render() != want.Render() {
				t.Errorf("%s: render differs\ndefault:\n%s\nRun only:\n%s", label, want.Render(), got.Render())
			}
			wantJSON, _ := want.JSON()
			gotJSON, _ := got.JSON()
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Errorf("%s: JSON differs\ndefault:\n%s\nRun only:\n%s", label, wantJSON, gotJSON)
			}
		}
	}
}

// TestMatchingPassAllocsIndependentOfCases: a pass over a suite whose
// every case matches the reference allocates no more at 2,000 cases than
// at 200. The reference writes each signature into its row's array and
// each SUT instance into its own buffer, so nothing allocates per case:
// one allocation per case and simulator would add 23,400. The slack of
// 10 absorbs the few allocations the race detector's runtime makes
// around the engine's goroutines.
func TestMatchingPassAllocsIndependentOfCases(t *testing.T) {
	allocs := func(n int) float64 {
		suite := &Suite{}
		for i := range n {
			suite.Cases = append(suite.Cases, stream(enc(isa.Inst{Op: isa.OpADDI, Rd: isa.Reg(5 + i%8), Rs1: 5, Imm: int32(i/8 - 128)})))
		}
		r := DefaultRunner()
		r.Workers = 1
		rep, err := r.Run(suite)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range rep.Cells {
			for j, c := range row {
				if c.Supported && (c.Mismatches != 0 || c.Skipped != 0) {
					t.Fatalf("%v/%s: %d mismatches, %d skipped; want every case to match",
						rep.Configs[i], rep.Sims[j], c.Mismatches, c.Skipped)
				}
			}
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := r.Run(suite); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, big := allocs(200), allocs(2000); big > small+10 {
		t.Errorf("a pass allocates %v times over 2,000 cases, %v over 200", big, small)
	}
}
