package fuzz

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rvnegtest/internal/coverage"
	"rvnegtest/internal/exec"
	"rvnegtest/internal/resilience"
	"rvnegtest/internal/sim"
	"rvnegtest/internal/template"
)

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestCheckpointResumeBitIdentical interrupts a serial campaign at a
// checkpoint and proves the resumed continuation reproduces the
// uninterrupted run exactly: same corpus bytes, same deterministic stats.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	cfg := smallConfig(coverage.V1(), 11)
	const budget = 12000

	base, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Run(budget, 0); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	f1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f1.Run(5000, 0); err != nil {
		t.Fatal(err)
	}
	if err := f1.SaveCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	f2, err := Resume(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := f2.Execs(); got != 5000 {
		t.Fatalf("resumed at %d execs, want 5000", got)
	}
	if err := f2.Run(budget, 0); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(base.Corpus(), f2.Corpus()) {
		t.Fatalf("resumed corpus differs: %d vs %d cases", len(f2.Corpus()), len(base.Corpus()))
	}
	want := mustJSON(t, base.Stats().Deterministic())
	got := mustJSON(t, f2.Stats().Deterministic())
	if want != got {
		t.Fatalf("deterministic stats differ:\n  uninterrupted: %s\n  resumed:       %s", want, got)
	}
}

// TestCampaignInterruptResumeDeterministic cancels a checkpointed campaign
// mid-run and resumes it, for 1 and 4 workers; the final merged corpus and
// per-worker stats must match an uninterrupted campaign byte for byte.
func TestCampaignInterruptResumeDeterministic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := smallConfig(coverage.V1(), 33)
		cc := CampaignConfig{Workers: workers, ExecsEach: 9000}

		wantCases, wantStats, err := Campaign(context.Background(), cfg, cc)
		if err != nil {
			t.Fatal(err)
		}

		ckpt := cc
		ckpt.CheckpointDir = t.TempDir()
		ckpt.CheckpointEvery = 1500
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		_, _, err = Campaign(ctx, cfg, ckpt)
		cancel()
		if err != nil && !errors.Is(err, ErrInterrupted) {
			t.Fatal(err)
		}
		interrupted := err != nil

		gotCases, gotStats, err := Campaign(context.Background(), cfg, ckpt)
		if err != nil {
			t.Fatal(err)
		}

		if !reflect.DeepEqual(wantCases, gotCases) {
			t.Fatalf("workers=%d: resumed corpus differs (%d vs %d cases, interrupted=%t)",
				workers, len(gotCases), len(wantCases), interrupted)
		}
		if len(gotStats) != len(wantStats) {
			t.Fatalf("workers=%d: %d stats entries, want %d", workers, len(gotStats), len(wantStats))
		}
		for w := range wantStats {
			want := mustJSON(t, wantStats[w].Deterministic())
			got := mustJSON(t, gotStats[w].Deterministic())
			if want != got {
				t.Fatalf("workers=%d worker %d: deterministic stats differ (interrupted=%t):\n  uninterrupted: %s\n  resumed:       %s",
					workers, w, interrupted, want, got)
			}
		}
		t.Logf("workers=%d: %d cases, interrupted mid-run: %t", workers, len(gotCases), interrupted)
	}
}

// onlyStateFile fails unless dir holds state.json and nothing else.
func onlyStateFile(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != stateFile {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("checkpoint directory holds %v, want [%s] alone", names, stateFile)
	}
}

// TestResumeWithPendingSeeds checkpoints while seeds still wait to be
// replayed (7 of 10 after the first save, one of them empty, which is a
// legal input) and resumes after every save. The corpus and the
// deterministic stats match the uninterrupted run, and every save leaves
// the directory holding state.json alone.
func TestResumeWithPendingSeeds(t *testing.T) {
	cfg := smallConfig(coverage.V1(), 11)
	prior, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := prior.Run(20000, 0); err != nil {
		t.Fatal(err)
	}
	seeds := prior.Corpus()[:10]
	seeds[5] = []byte{}
	cfg.Seeds = seeds
	const budget = 6000

	base, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Run(budget, 0); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, stop := range []uint64{3, 8, 2000} {
		if err := f.Run(stop, 0); err != nil {
			t.Fatal(err)
		}
		if stop == 3 && len(f.pending) != 7 {
			t.Fatalf("%d seeds pending after 3 executions, want 7", len(f.pending))
		}
		if err := f.SaveCheckpoint(dir); err != nil {
			t.Fatal(err)
		}
		onlyStateFile(t, dir)
		if f, err = Resume(cfg, dir); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Run(budget, 0); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Corpus(), f.Corpus()) {
		t.Fatalf("resumed corpus differs: %d vs %d cases", len(f.Corpus()), len(base.Corpus()))
	}
	want := mustJSON(t, base.Stats().Deterministic())
	got := mustJSON(t, f.Stats().Deterministic())
	if want != got {
		t.Fatalf("deterministic stats differ:\n  uninterrupted: %s\n  resumed:       %s", want, got)
	}
}

// TestResumeRefusesVersion1: a checkpoint in the version-1 layout, whose
// state.json named separate corpus and frontier files, is refused by
// name, with the remedy, before anything else of it is read.
func TestResumeRefusesVersion1(t *testing.T) {
	cfg := smallConfig(coverage.V1(), 3)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	v1 := map[string]any{
		"fingerprint":   f.cfg.Fingerprint(),
		"execs":         500,
		"rng":           f.src.State(),
		"trace":         []TracePoint{{Execs: 1, TestCases: 1}},
		"filter_counts": f.fstats.Counts,
		"cov_bits":      12,
		"corpus_file":   "corpus-0000000000000500.hex",
		"frontier_file": "frontier-0000000000000500.bin",
	}
	if err := resilience.SaveJSON(filepath.Join(dir, stateFile), checkpointFormat, 1, v1); err != nil {
		t.Fatal(err)
	}
	_, err = Resume(cfg, dir)
	if err == nil {
		t.Fatal("Resume accepted a version-1 checkpoint")
	}
	for _, want := range []string{dir, "version-1 checkpoint", "restart the campaign", "finish it with the build that wrote it"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("Resume error %q does not name %q", err, want)
		}
	}
}

// TestFingerprintText pins the fingerprint a DefaultConfig campaign
// writes into its checkpoints, with and without the mutator ablation.
// The instruction-aware mutator's probability used to be a Config field
// and is printed as one, so those checkpoints keep resuming.
func TestFingerprintText(t *testing.T) {
	for _, c := range []struct {
		nocustom bool
		want     string
	}{
		{false, "seed=1 isa=RV32GC maxlen=64 lencontrol=10000 prob=0.5 nofilter=false nocustom=false edges=true hash=16384 rules=true"},
		{true, "seed=1 isa=RV32GC maxlen=64 lencontrol=10000 prob=0.5 nofilter=false nocustom=true edges=true hash=16384 rules=true"},
	} {
		cfg := DefaultConfig()
		cfg.DisableCustomMutator = c.nocustom
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := f.cfg.Fingerprint(); got != c.want {
			t.Errorf("fingerprint\n  got  %q\n  want %q", got, c.want)
		}
	}
}

func TestResumeRejectsDifferentCampaign(t *testing.T) {
	cfg := smallConfig(coverage.V1(), 3)
	dir := t.TempDir()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(500, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.SaveCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed = 4
	if _, err := Resume(other, dir); err == nil {
		t.Fatal("Resume accepted a checkpoint from a different campaign")
	}
	if _, err := Resume(cfg, t.TempDir()); err == nil {
		t.Fatal("Resume accepted an empty directory")
	}
}

// TestResumeRefusesInconsistentDropCount: a checkpoint's dropped count
// is its filter counts' drops, every drop recorded under its reason, so
// Resume refuses a checkpoint whose two disagree, naming both.
func TestResumeRefusesInconsistentDropCount(t *testing.T) {
	cfg := smallConfig(coverage.V1(), 3)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(2000, 0); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := f.SaveCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, stateFile)
	var st checkpointState
	if _, err := resilience.LoadJSON(path, checkpointFormat, checkpointVersion, &st); err != nil {
		t.Fatal(err)
	}
	if drops := f.fstats.Dropped(); st.Dropped == 0 || st.Dropped != drops {
		t.Fatalf("checkpoint records %d drops, the filter counts %d", st.Dropped, drops)
	}
	st.Dropped++
	if err := resilience.SaveJSON(path, checkpointFormat, checkpointVersion, st); err != nil {
		t.Fatal(err)
	}
	_, err = Resume(cfg, dir)
	if err == nil {
		t.Fatal("Resume accepted a drop count its filter counts disagree with")
	}
	for _, want := range []string{fmt.Sprint(st.Dropped - 1), fmt.Sprint(st.Dropped)} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("Resume error %q does not name %q", err, want)
		}
	}
}

func TestRunNeedsABound(t *testing.T) {
	f, err := New(smallConfig(coverage.V0(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(0, 0); err == nil {
		t.Fatal("Run without any bound did not error")
	}
}

func faultyFactory(plan sim.Schedule, msg string, release <-chan struct{}) func(template.Platform) (sim.HookedSim, error) {
	return func(p template.Platform) (sim.HookedSim, error) {
		inner, err := sim.New(sim.Reference, p)
		if err != nil {
			return nil, err
		}
		return &sim.Faulty{Inner: inner, Plan: plan, PanicMsg: msg, Release: release}, nil
	}
}

// TestQuarantineFailureLeavesStdoutAlone: a quarantine that cannot be
// written (its directory is a regular file) warns on stderr and leaves
// stdout to the caller.
func TestQuarantineFailureLeavesStdoutAlone(t *testing.T) {
	cfg := smallConfig(coverage.V1(), 5)
	cfg.QuarantineDir = filepath.Join(t.TempDir(), "quarantine")
	if err := os.WriteFile(cfg.QuarantineDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.NewTarget = faultyFactory(func([]byte) sim.Fault { return sim.FaultPanic }, "boom", nil)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	saved := os.Stdout
	os.Stdout = stdout
	err = f.Run(3, 0)
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	if f.Stats().HarnessFaults == 0 {
		t.Fatal("no harness fault recorded")
	}
	if b, err := os.ReadFile(stdout.Name()); err != nil || len(b) != 0 {
		t.Errorf("stdout = %q (%v), want empty", b, err)
	}
}

// TestPanicIsolationQuarantinesInput proves a panicking foundation
// simulator does not kill the campaign: the panic is counted as a harness
// fault and the offending input lands in quarantine with its message.
func TestPanicIsolationQuarantinesInput(t *testing.T) {
	qdir := t.TempDir()
	cfg := smallConfig(coverage.V1(), 5)
	cfg.QuarantineDir = qdir
	calls := 0
	cfg.NewTarget = faultyFactory(func([]byte) sim.Fault {
		calls++
		if calls%50 == 0 {
			return sim.FaultPanic
		}
		return sim.FaultNone
	}, "exec: unhandled operation 0xbeef", nil)

	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(2000, 0); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Execs != 2000 {
		t.Fatalf("campaign stopped at %d execs", st.Execs)
	}
	if st.HarnessFaults == 0 {
		t.Fatal("no harness faults recorded despite injected panics")
	}
	if st.Crashes < st.HarnessFaults {
		t.Fatalf("crashes %d < harness faults %d", st.Crashes, st.HarnessFaults)
	}
	ents, err := os.ReadDir(qdir)
	if err != nil {
		t.Fatal(err)
	}
	var sawDetail bool
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".txt") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(qdir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), "exec: unhandled operation 0xbeef") {
			sawDetail = true
		}
	}
	if !sawDetail {
		t.Fatalf("quarantine (%d entries) lacks the panic message", len(ents))
	}
}

// TestWatchdogReapsWedgedTarget wedges the simulator once; the watchdog
// must reap it, rebuild the target, and let the campaign finish its budget.
func TestWatchdogReapsWedgedTarget(t *testing.T) {
	release := make(chan struct{})
	defer close(release) // let the abandoned goroutine exit at teardown
	cfg := smallConfig(coverage.V1(), 6)
	cfg.CaseTimeout = 50 * time.Millisecond
	var calls atomic.Int64 // Plan runs on guard goroutines, not the test's
	cfg.NewTarget = faultyFactory(func([]byte) sim.Fault {
		if calls.Add(1) == 10 {
			return sim.FaultWedge
		}
		return sim.FaultNone
	}, "", release)

	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(600, 0); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Execs != 600 {
		t.Fatalf("campaign stopped at %d execs after the wedge", st.Execs)
	}
	if st.Timeouts == 0 || st.HarnessFaults == 0 {
		t.Fatalf("wedge not observed: timeouts=%d, harness faults=%d", st.Timeouts, st.HarnessFaults)
	}
	if st.TestCases == 0 {
		t.Fatal("no test cases collected after target rebuild")
	}
}

// inputWatch is a foundation simulator whose holdAt-th run outlives the
// watchdog: it keeps a copy of its input, blocks until the campaign has
// made movedOn more runs on the rebuilt targets, and then reports
// whether its input still holds the bytes it was given.
type inputWatch struct {
	sim.HookedSim
	calls *atomic.Int64
	moved func()
	wait  <-chan struct{}
	kept  chan<- bool
}

const holdAt, movedOn = 10, 200

func (w inputWatch) RunHooked(bs []byte, hook exec.Hook) sim.Outcome {
	switch w.calls.Add(1) {
	case holdAt:
		given := bytes.Clone(bs)
		<-w.wait
		w.kept <- bytes.Equal(bs, given)
		return sim.Outcome{}
	case holdAt + movedOn:
		w.moved()
	}
	return w.HookedSim.RunHooked(bs, hook)
}

// TestReapedRunKeepsItsInput: a reaped run may still read its input, so
// the mutator must not build later candidates in the same buffer. The
// run the watchdog abandons checks its input once the campaign has
// moved on past it.
func TestReapedRunKeepsItsInput(t *testing.T) {
	var calls atomic.Int64
	wait := make(chan struct{})
	var once sync.Once
	moved := func() { once.Do(func() { close(wait) }) }
	defer moved() // release the abandoned run if the campaign stopped short
	kept := make(chan bool, 1)
	cfg := smallConfig(coverage.V1(), 6)
	cfg.CaseTimeout = 50 * time.Millisecond
	cfg.NewTarget = func(p template.Platform) (sim.HookedSim, error) {
		inner, err := sim.New(sim.Reference, p)
		if err != nil {
			return nil, err
		}
		return inputWatch{inner, &calls, moved, wait, kept}, nil
	}

	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(3000, 0); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.Timeouts != 1 || st.HarnessFaults != 1 {
		t.Fatalf("want one reaped run: timeouts=%d, harness faults=%d", st.Timeouts, st.HarnessFaults)
	}
	if n := calls.Load(); n < holdAt+movedOn {
		t.Fatalf("the campaign made %d runs, want at least %d", n, holdAt+movedOn)
	}
	select {
	case ok := <-kept:
		if !ok {
			t.Fatal("a later candidate overwrote the input of the reaped run")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the reaped run never finished its check")
	}
}
