package compliance

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"rvnegtest/internal/isa"
	"rvnegtest/internal/obs"
	"rvnegtest/internal/sim"
	"rvnegtest/internal/sut"
)

// TestMain doubles as the external adapter subprocess: when the helper
// env var is set, the test binary serves the adapter protocol on
// stdin/stdout instead of running tests, so the external-column tests
// exercise real processes, real pipes, and real kills end to end.
func TestMain(m *testing.M) {
	if os.Getenv("SUT_COMPLIANCE_HELPER") == "1" {
		complianceHelperMain()
		return
	}
	os.Exit(m.Run())
}

func complianceHelperMain() {
	if n, _ := strconv.Atoi(os.Getenv("SUT_STDERR_SPAM")); n > 0 {
		os.Stderr.Write(bytes.Repeat([]byte("adapter-stderr-spam\n"), (n+9)/10))
	}
	name := os.Getenv("SUT_VARIANT")
	if name == "" {
		name = "reference"
	}
	v, ok := sim.ByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown variant %q\n", name)
		os.Exit(2)
	}
	var h sut.Handler = sut.NewSimHandler(v)
	if tomb := os.Getenv("SUT_TOMBSTONE"); tomb != "" {
		after, _ := strconv.Atoi(os.Getenv("SUT_DIE_AFTER"))
		h = &dyingHandler{inner: h, tomb: tomb, after: after}
	}
	mb, err := sut.ParseMisbehave(os.Getenv("SUT_MISBEHAVE"))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	after, _ := strconv.Atoi(os.Getenv("SUT_AFTER"))
	if err := sut.Serve(os.Stdin, os.Stdout, h, sut.ServeOpts{Misbehave: mb, After: after}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// dyingHandler models an operator's `kill -9` that the backend never
// recovers from: after `after` successful runs it writes a tombstone and
// SIGKILLs itself, and every respawned process that finds the tombstone
// dies again on its first request. Unlike ServeOpts.After (which a
// restart heals, because the per-process run counter resets), the
// tombstone makes the failure absorbing — exactly the shape graceful
// degradation exists for.
type dyingHandler struct {
	inner sut.Handler
	tomb  string
	after int
	runs  int
}

func (h *dyingHandler) Info() sut.Info { return h.inner.Info() }

func (h *dyingHandler) Run(req sut.RunRequest) (sut.RunResult, error) {
	if _, err := os.Stat(h.tomb); err == nil {
		_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
		select {}
	}
	h.runs++
	if h.after > 0 && h.runs > h.after {
		_ = os.WriteFile(h.tomb, []byte("dead\n"), 0o644)
		_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
		select {}
	}
	return h.inner.Run(req)
}

// extSpec builds a Spec that re-executes this test binary as the
// adapter, with fast backoff so failure tests stay quick.
func extSpec(name string, env ...string) sut.Spec {
	return sut.Spec{
		Name:             name,
		Argv:             []string{os.Args[0]},
		Env:              append([]string{"SUT_COMPLIANCE_HELPER=1"}, env...),
		HandshakeTimeout: 10 * time.Second,
		RunTimeout:       10 * time.Second,
		BackoffBase:      time.Millisecond,
		BackoffMax:       4 * time.Millisecond,
		Seed:             1,
	}
}

// cellFor looks one (config, sim) cell up in a report.
func cellFor(t *testing.T, rep *Report, cfg isa.Config, name string) Cell {
	t.Helper()
	for i, c := range rep.Configs {
		if c != cfg {
			continue
		}
		for j, s := range rep.Sims {
			if s == name {
				return rep.Cells[i][j]
			}
		}
	}
	t.Fatalf("cell %v/%s missing", cfg, name)
	return Cell{}
}

// TestExternalParityAcrossWorkers is the tentpole acceptance check: an
// external adapter wrapping the built-in reference model must produce
// cells byte-identical to the in-process column, for every worker count.
func TestExternalParityAcrossWorkers(t *testing.T) {
	suite := handSuite()
	configs := []isa.Config{isa.RV32I, isa.RV32IMC, isa.RV32GC}
	var renders []string
	for _, workers := range []int{1, 2, 8} {
		r := &Runner{
			Ref:      sim.OVPSim,
			SUTs:     []*sim.Variant{sim.Reference},
			External: []sut.Spec{extSpec("ext-reference")},
			Configs:  configs,
			Workers:  workers,
		}
		rep, err := r.Run(suite)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Degraded() {
			t.Fatalf("workers=%d: healthy adapter degraded the report:\n%s", workers, rep.Render())
		}
		for _, cfg := range configs {
			in := cellFor(t, rep, cfg, "reference")
			ext := cellFor(t, rep, cfg, "ext-reference")
			if !reflect.DeepEqual(in, ext) {
				t.Errorf("workers=%d %v: in-process %+v != external %+v", workers, cfg, in, ext)
			}
			if !ext.Supported || ext.Mismatches == 0 {
				t.Errorf("workers=%d %v: external cell did no work: %+v", workers, cfg, ext)
			}
		}
		renders = append(renders, rep.Render())
	}
	for i := 1; i < len(renders); i++ {
		if renders[i] != renders[0] {
			t.Errorf("report differs between worker counts:\n%s\nvs\n%s", renders[0], renders[i])
		}
	}
}

// TestExternalMisbehaveDegrades runs the full misbehaviour matrix: every
// failure mode must degrade into adapter-skipped cells plus a tripped
// breaker — never a harness crash, never a fake crash finding.
func TestExternalMisbehaveDegrades(t *testing.T) {
	suite := handSuite()
	for _, mode := range []string{"hang", "crash", "kill", "garbage", "truncate"} {
		t.Run(mode, func(t *testing.T) {
			spec := extSpec("ext-bad", "SUT_MISBEHAVE="+mode)
			spec.Retries = -1 // single attempt per case keeps counts exact
			if mode == "hang" {
				spec.RunTimeout = 150 * time.Millisecond
			}
			r := &Runner{
				Ref:           sim.OVPSim,
				External:      []sut.Spec{spec},
				Configs:       []isa.Config{isa.RV32I},
				HalfOpenAfter: -1, // stay-open: deterministic skip counts
				Workers:       1,
			}
			rep, err := r.Run(suite)
			if err != nil {
				t.Fatalf("misbehaving adapter must degrade, not fail the run: %v", err)
			}
			c := cellFor(t, rep, isa.RV32I, "ext-bad")
			if !c.Supported || !c.Unhealthy {
				t.Fatalf("cell not marked unhealthy: %+v", c)
			}
			if c.SkippedAdapter != DefaultBreakerThreshold {
				t.Errorf("SkippedAdapter = %d, want %d (breaker threshold)", c.SkippedAdapter, DefaultBreakerThreshold)
			}
			if want := len(suite.Cases) - DefaultBreakerThreshold; c.SkippedUnhealthy != want {
				t.Errorf("SkippedUnhealthy = %d, want %d", c.SkippedUnhealthy, want)
			}
			if c.Mismatches != 0 || c.Crashes != 0 || c.Timeouts != 0 {
				t.Errorf("adapter-level failure polluted the verdict counts: %+v", c)
			}
			if !rep.Degraded() {
				t.Error("report must be degraded")
			}
			if !strings.Contains(rep.Render(), "skipped (adapter)") {
				t.Errorf("render lacks adapter-skip note:\n%s", rep.Render())
			}
		})
	}
}

// TestExternalKillOnlyDegradesOwnColumn: a backend that dies for good
// mid-campaign (kill -9 plus tombstone) degrades its own column only;
// the in-process columns are byte-identical to a run without the
// external at all.
func TestExternalKillOnlyDegradesOwnColumn(t *testing.T) {
	suite := handSuite()
	tomb := filepath.Join(t.TempDir(), "tomb")
	spec := extSpec("ext-dying", "SUT_TOMBSTONE="+tomb, "SUT_DIE_AFTER=4")
	spec.Retries = -1
	r := &Runner{
		Ref:           sim.OVPSim,
		SUTs:          []*sim.Variant{sim.Spike},
		External:      []sut.Spec{spec},
		Configs:       []isa.Config{isa.RV32I},
		HalfOpenAfter: -1,
		Workers:       1,
	}
	rep, err := r.Run(suite)
	if err != nil {
		t.Fatal(err)
	}
	c := cellFor(t, rep, isa.RV32I, "ext-dying")
	// 4 served cases, then 5 adapter faults trip the breaker, rest skipped.
	if c.SkippedAdapter != 5 || c.HarnessFaults != 5 {
		t.Errorf("SkippedAdapter/HarnessFaults = %d/%d, want 5/5 (%+v)", c.SkippedAdapter, c.HarnessFaults, c)
	}
	if want := len(suite.Cases) - 4 - 5; c.SkippedUnhealthy != want {
		t.Errorf("SkippedUnhealthy = %d, want %d", c.SkippedUnhealthy, want)
	}
	if !rep.Degraded() {
		t.Error("report must be degraded")
	}
	// The JSON report counts the cases the adapter lost, as the text
	// report does; a column that lost none carries no such field.
	raw, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var js struct {
		Rows []struct {
			Cells []map[string]any `json:"cells"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(raw, &js); err != nil {
		t.Fatal(err)
	}
	for _, cell := range js.Rows[0].Cells {
		n, ok := cell["skipped_adapter"]
		if want := cell["simulator"] == "ext-dying"; ok != want || want && n != 5.0 {
			t.Errorf("%v: skipped_adapter = %v (present %t), want 5 on ext-dying only", cell["simulator"], n, ok)
		}
	}

	// The Spike column must be untouched by its neighbour's death.
	base := &Runner{Ref: sim.OVPSim, SUTs: []*sim.Variant{sim.Spike}, Configs: []isa.Config{isa.RV32I}, Workers: 1}
	baseRep, err := base.Run(suite)
	if err != nil {
		t.Fatal(err)
	}
	got, want := cellFor(t, rep, isa.RV32I, "Spike"), cellFor(t, baseRep, isa.RV32I, "Spike")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Spike cell changed next to a dying external: %+v vs %+v", got, want)
	}
}

// TestExternalResumeAfterKillByteIdentical: interrupting a campaign
// while the external backend is dead, then resuming from the checkpoint,
// must render byte-identically to the uninterrupted degraded run.
func TestExternalResumeAfterKillByteIdentical(t *testing.T) {
	suite := handSuite()
	configs := []isa.Config{isa.RV32I, isa.RV32IMC}
	newRunner := func(tomb string) *Runner {
		spec := extSpec("ext-dying", "SUT_TOMBSTONE="+tomb, "SUT_DIE_AFTER=4")
		spec.Retries = -1
		return &Runner{
			Ref:           sim.OVPSim,
			SUTs:          []*sim.Variant{sim.Spike},
			External:      []sut.Spec{spec},
			Configs:       configs,
			HalfOpenAfter: -1,
			Workers:       1,
		}
	}

	// Uninterrupted degraded run: the backend dies during row 1 and every
	// row-2 exchange finds it dead.
	dirA, dirB := t.TempDir(), t.TempDir()
	full, err := newRunner(filepath.Join(dirA, "tomb")).RunResumable(context.Background(), suite, dirA)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Degraded() {
		t.Fatal("uninterrupted run must already be degraded")
	}

	// Interrupted run: cancel as soon as row 2 starts (row 1, kill
	// included, is checkpointed by then).
	tombB := filepath.Join(dirB, "tomb")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := newRunner(tombB)
	r.Progress = func(ev ProgressEvent) {
		if ev.Config == isa.RV32IMC {
			cancel()
		}
	}
	if _, err := r.RunResumable(ctx, suite, dirB); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}

	resumed, err := newRunner(tombB).RunResumable(context.Background(), suite, dirB)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resumed.Render(), full.Render(); got != want {
		t.Errorf("resumed render differs from uninterrupted run:\n--- resumed\n%s--- uninterrupted\n%s", got, want)
	}
}

// TestExternalQuarantineProtocolContext: adapter faults land in the
// quarantine with their protocol context — the last response frame seen
// and the adapter's stderr tail.
func TestExternalQuarantineProtocolContext(t *testing.T) {
	qdir := filepath.Join(t.TempDir(), "quarantine")
	spec := extSpec("ext-bad", "SUT_MISBEHAVE=crash", "SUT_STDERR_SPAM=50")
	spec.Retries = -1
	r := &Runner{
		Ref:           sim.OVPSim,
		External:      []sut.Spec{spec},
		Configs:       []isa.Config{isa.RV32I},
		HalfOpenAfter: -1,
		Workers:       1,
		QuarantineDir: qdir,
	}
	suite := &Suite{Cases: [][]byte{stream(enc(isa.Inst{Op: isa.OpADD, Rd: 5, Rs1: 1, Rs2: 2}))}}
	if _, err := r.Run(suite); err != nil {
		t.Fatal(err)
	}
	txts, err := filepath.Glob(filepath.Join(qdir, "*.txt"))
	if err != nil || len(txts) == 0 {
		t.Fatalf("no quarantine details written (err=%v)", err)
	}
	detail, err := os.ReadFile(txts[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"adapter fault", "last frame:", "adapter stderr tail:", "adapter-stderr-spam"} {
		if !strings.Contains(string(detail), want) {
			t.Errorf("quarantine detail lacks %q:\n%s", want, detail)
		}
	}
}

// TestExternalCapsGateConfigs: the handshake capability bits gate
// configurations the way the in-process variant model does — an external
// VP (no floating point) renders "/" on RV32GC.
func TestExternalCapsGateConfigs(t *testing.T) {
	r := &Runner{
		Ref:      sim.OVPSim,
		SUTs:     []*sim.Variant{sim.VP},
		External: []sut.Spec{extSpec("ext-VP", "SUT_VARIANT=VP")},
		Configs:  []isa.Config{isa.RV32I, isa.RV32GC},
		Workers:  1,
	}
	rep, err := r.Run(handSuite())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"VP", "ext-VP"} {
		if c := cellFor(t, rep, isa.RV32GC, name); c.Supported {
			t.Errorf("%s must be unsupported on RV32GC (no FP capability)", name)
		}
		if c := cellFor(t, rep, isa.RV32I, name); !c.Supported {
			t.Errorf("%s must be supported on RV32I", name)
		}
	}
	in, ext := cellFor(t, rep, isa.RV32I, "VP"), cellFor(t, rep, isa.RV32I, "ext-VP")
	if !reflect.DeepEqual(in, ext) {
		t.Errorf("VP parity broken: in-process %+v != external %+v", in, ext)
	}
}

// TestExternalBreakerHalfOpenRecovery drives the open → half-open →
// closed cycle end to end: a backend that serves one run per process and
// then crashes keeps tripping a threshold-1 breaker, and after every
// two denied runs the half-open probe respawns it and wins a verdict.
func TestExternalBreakerHalfOpenRecovery(t *testing.T) {
	spec := extSpec("ext-flappy", "SUT_MISBEHAVE=crash", "SUT_AFTER=1")
	spec.Retries = -1
	var buf bytes.Buffer
	events := obs.NewEventLog(&buf)
	r := &Runner{
		Ref:              sim.OVPSim,
		External:         []sut.Spec{spec},
		Configs:          []isa.Config{isa.RV32I},
		BreakerThreshold: 1,
		HalfOpenAfter:    2,
		Workers:          1,
		Obs:              obs.NewRegistry(),
		Events:           events,
	}
	suite := handSuite() // 12 cases
	rep, err := r.Run(suite)
	if err != nil {
		t.Fatal(err)
	}
	if err := events.Close(); err != nil {
		t.Fatal(err)
	}
	// Schedule with 12 cases: verdicts at 0/4/8, faults at 1/5/9 (each
	// trips the threshold-1 breaker), two denied runs before each probe.
	c := cellFor(t, rep, isa.RV32I, "ext-flappy")
	if c.SkippedAdapter != 3 || c.HarnessFaults != 3 {
		t.Errorf("SkippedAdapter/HarnessFaults = %d/%d, want 3/3 (%+v)", c.SkippedAdapter, c.HarnessFaults, c)
	}
	if c.SkippedUnhealthy != 6 {
		t.Errorf("SkippedUnhealthy = %d, want 6 (%+v)", c.SkippedUnhealthy, c)
	}

	evs, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	count := func(typ string) int {
		n := 0
		for _, ev := range evs {
			if ev.Type == typ {
				n++
			}
		}
		return n
	}
	for typ, want := range map[string]int{
		"breaker_open":      3,
		"breaker_half_open": 2,
		"breaker_close":     2,
		"adapter_fault":     3,
		"sut_restart":       2,
	} {
		if got := count(typ); got != want {
			t.Errorf("%s events = %d, want %d", typ, got, want)
		}
	}
}
