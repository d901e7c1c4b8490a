package compliance

import (
	"bytes"
	"sync"
	"testing"

	"rvnegtest/internal/isa"
	"rvnegtest/internal/obs"
	"rvnegtest/internal/sim"
)

// telemetryRunner is DefaultRunner with a fresh registry and event log
// attached.
func telemetryRunner(workers int) (*Runner, *obs.Registry, *bytes.Buffer) {
	r := DefaultRunner()
	r.Workers = workers
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	r.Obs = reg
	r.Events = obs.NewEventLog(&buf)
	return r, reg, &buf
}

// sampledSuite cycles handSuite's cases over 3·obs.SampleEvery+1
// indexes, so four case indexes (0, 256, 512 and 768: an ADD, a
// misaligned jump, a c.lwsp and the ADD again) are sampled.
func sampledSuite() *Suite {
	hand := handSuite()
	s := &Suite{Origin: hand.Origin}
	for i := 0; i <= 3*obs.SampleEvery; i++ {
		s.Cases = append(s.Cases, hand.Cases[i%len(hand.Cases)])
	}
	return s
}

// sampledStages replays the sampled case indexes of suite on a runner
// without telemetry and returns the runs and signature comparisons the
// sampled stage timers must stand for: obs.SampleEvery times the
// executions and the compared outcomes of that replay.
func sampledStages(t *testing.T, suite *Suite) (execs, compares uint64) {
	t.Helper()
	sampled := &Suite{}
	for i := 0; i < len(suite.Cases); i += obs.SampleEvery {
		sampled.Cases = append(sampled.Cases, suite.Cases[i])
	}
	r := DefaultRunner()
	rep, err := r.Run(sampled)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Cells {
		for _, c := range rep.Cells[i] {
			if c.Supported {
				compares += uint64(rep.Cases - c.Skipped - c.SkippedUnhealthy - c.SkippedAdapter - c.Crashes - c.Timeouts)
			}
		}
	}
	return obs.SampleEvery * uint64(r.Stats.Execs), obs.SampleEvery * compares
}

// TestComplianceTelemetryCounters: the registry's totals must agree with
// the run's own statistics and with the report, the stage timers with
// the sampled schedule, and the event stream must describe every row and
// cell.
func TestComplianceTelemetryCounters(t *testing.T) {
	suite := sampledSuite()
	r, reg, buf := telemetryRunner(1)
	rep, err := r.Run(suite)
	if err != nil {
		t.Fatal(err)
	}

	if got := reg.Counter("rvnegtest_compliance_execs_total").Value(); got != uint64(r.Stats.Execs) {
		t.Errorf("execs counter = %d, RunStats.Execs = %d", got, r.Stats.Execs)
	}
	if got := reg.Counter("rvnegtest_compliance_rows_total").Value(); got != uint64(len(r.Configs)) {
		t.Errorf("rows counter = %d, want %d", got, len(r.Configs))
	}
	for j, name := range rep.Sims {
		var mism, hf int
		for i := range rep.Configs {
			mism += rep.Cells[i][j].Mismatches
			hf += rep.Cells[i][j].HarnessFaults
		}
		if got := reg.Counter(`rvnegtest_compliance_mismatches_total{sim="` + name + `"}`).Value(); got != uint64(mism) {
			t.Errorf("%s mismatch counter = %d, report says %d", name, got, mism)
		}
		if got := reg.Counter(`rvnegtest_compliance_harness_faults_total{sim="` + name + `"}`).Value(); got != uint64(hf) {
			t.Errorf("%s harness-fault counter = %d, report says %d", name, got, hf)
		}
	}
	// The runs of every obs.SampleEvery-th case index (reference + SUT)
	// are timed with weight obs.SampleEvery.
	execs, compares := sampledStages(t, suite)
	if got := reg.Stage(obs.StageExecute).Count(); got != execs {
		t.Errorf("execute stage count = %d, want %d", got, execs)
	}
	if got := reg.Stage(obs.StageSignatureCompare).Count(); got != compares {
		t.Errorf("signature-compare stage count = %d, want %d", got, compares)
	}
	if compares == 0 || compares == execs {
		t.Errorf("replay compared %d of %d runs; the schedule check is vacuous", compares, execs)
	}

	if err := r.Events.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	var lastSeq uint64
	for _, ev := range evs {
		if ev.Seq <= lastSeq {
			t.Fatalf("event seq not strictly increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		counts[ev.Type]++
	}
	if counts["row_done"] != len(r.Configs) {
		t.Errorf("row_done events = %d, want %d", counts["row_done"], len(r.Configs))
	}
	var supported int
	for i := range rep.Configs {
		for j := range rep.Sims {
			if rep.Cells[i][j].Supported {
				supported++
			}
		}
	}
	if counts["cell_done"] != supported {
		t.Errorf("cell_done events = %d, want %d (supported cells)", counts["cell_done"], supported)
	}
	if counts["shard_done"] != len(r.Configs) {
		t.Errorf("shard_done events = %d, want %d (one reference pass per row)", counts["shard_done"], len(r.Configs))
	}
}

// TestComplianceTelemetryParallel hammers a multi-worker run with the
// Progress hook, a shared registry and a shared event stream (run under
// -race in CI): emission must stay serialized and strictly monotonic, and
// the deterministic totals must match a one-worker run's.
func TestComplianceTelemetryParallel(t *testing.T) {
	suite := sampledSuite()

	one, oneReg, _ := telemetryRunner(1)
	oneRep, err := one.Run(suite)
	if err != nil {
		t.Fatal(err)
	}

	r, reg, buf := telemetryRunner(4)
	var mu sync.Mutex
	progress := 0
	r.Progress = func(ev ProgressEvent) {
		mu.Lock()
		progress++
		mu.Unlock()
	}
	rep, err := r.Run(suite)
	if err != nil {
		t.Fatal(err)
	}
	if progress == 0 {
		t.Fatal("progress hook never invoked")
	}
	if got, want := rep.Render(), oneRep.Render(); got != want {
		t.Fatalf("4-worker report differs from 1 worker's with telemetry on:\n%s\nvs\n%s", got, want)
	}

	// Order-independent totals agree with the one-worker run; so do the
	// stage counts, since the sampled case indexes do not depend on how
	// the suite is sharded.
	for _, name := range []string{
		"rvnegtest_compliance_execs_total",
		"rvnegtest_compliance_rows_total",
		`rvnegtest_compliance_mismatches_total{sim="Spike"}`,
	} {
		if got, want := reg.Counter(name).Value(), oneReg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d at 4 workers, %d at 1", name, got, want)
		}
	}
	for _, s := range []obs.Stage{obs.StageExecute, obs.StageSignatureCompare} {
		got, want := reg.Stage(s).Count(), oneReg.Stage(s).Count()
		if got != want || want == 0 {
			t.Errorf("%s stage count = %d at 4 workers, %d at 1", s, got, want)
		}
	}

	if err := r.Events.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var lastSeq uint64
	rows := 0
	for _, ev := range evs {
		if ev.Seq <= lastSeq {
			t.Fatalf("event seq not strictly increasing under concurrency: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.Type == "row_done" {
			rows++
		}
	}
	if rows != len(r.Configs) {
		t.Errorf("row_done events = %d, want %d", rows, len(r.Configs))
	}
}

// TestComplianceTelemetryOffIdentical: a run with telemetry attached must
// produce a byte-identical report to one without (the determinism
// boundary of the acceptance criteria).
func TestComplianceTelemetryOffIdentical(t *testing.T) {
	suite := handSuite()
	for _, workers := range []int{1, 3} {
		plain := DefaultRunner()
		plain.Workers = workers
		wantRep, err := plain.Run(suite)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := wantRep.JSON()
		if err != nil {
			t.Fatal(err)
		}

		r, _, _ := telemetryRunner(workers)
		gotRep, err := r.Run(suite)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := gotRep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("workers=%d: report JSON differs with telemetry enabled", workers)
		}
	}
}

// TestBreakerOpenTelemetry: a tripped breaker must surface as exactly one
// breaker_open event and counter increment for the faulting simulator.
func TestBreakerOpenTelemetry(t *testing.T) {
	var cases [][]byte
	for i := 0; i < 8; i++ {
		cases = append(cases, []byte{0x93, byte(i), 0x10, 0x00})
	}
	suite := &Suite{Cases: cases}
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	r := &Runner{
		Ref:              sim.OVPSim,
		SUTs:             []*sim.Variant{sim.Spike},
		Configs:          []isa.Config{isa.RV32I},
		Workers:          1,
		BreakerThreshold: 2,
		NewSim:           faultySUTFactory("Spike", func([]byte) sim.Fault { return sim.FaultPanic }, "boom", nil),
		Obs:              reg,
		Events:           obs.NewEventLog(&buf),
	}
	if _, err := r.Run(suite); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(`rvnegtest_compliance_breaker_opens_total{sim="Spike"}`).Value(); got != 1 {
		t.Errorf("breaker-open counter = %d, want 1", got)
	}
	if err := r.Events.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	opens := 0
	for _, ev := range evs {
		if ev.Type == "breaker_open" {
			opens++
			if ev.Sim != "Spike" {
				t.Errorf("breaker_open names sim %q", ev.Sim)
			}
		}
	}
	if opens != 1 {
		t.Errorf("breaker_open events = %d, want 1", opens)
	}
}
