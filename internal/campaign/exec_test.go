package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rvnegtest/internal/fuzz"
	"rvnegtest/internal/obs"
	"rvnegtest/internal/resilience"
)

func fuzzSpec(workers int) JobSpec {
	return JobSpec{
		Kind:            KindFuzz,
		Seed:            3,
		Execs:           4000,
		Workers:         workers,
		CheckpointEvery: 2000,
	}
}

func complianceSpec(workers int) JobSpec {
	return JobSpec{
		Kind:    KindCompliance,
		Suite:   "user",
		Seed:    5,
		Execs:   1500,
		Workers: workers,
		Sims:    []string{"Spike", "VP"},
		ISAs:    []string{"RV32I"},
	}
}

// readArtifacts loads every artifact file under dir by name.
func readArtifacts(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading artifacts dir: %v", err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = raw
	}
	return out
}

// directArtifacts runs the spec the way a CLI-with-checkpoint invocation
// would — Execute on the calling goroutine — and writes its artifacts.
func directArtifacts(t *testing.T, spec JobSpec) map[string][]byte {
	t.Helper()
	arts, _ := executeArtifacts(t, spec, true)
	return arts
}

// executeArtifacts runs Execute on the calling goroutine, with a fresh
// checkpoint directory when checkpoint is set, and returns the written
// artifacts together with the result.
func executeArtifacts(t *testing.T, spec JobSpec, checkpoint bool) (map[string][]byte, *Result) {
	t.Helper()
	dir := t.TempDir()
	var env Env
	if checkpoint {
		env.CheckpointDir = filepath.Join(dir, "ck")
	}
	res, err := Execute(context.Background(), spec, env)
	if err != nil {
		t.Fatalf("direct execute: %v", err)
	}
	adir := filepath.Join(dir, "artifacts")
	if err := res.WriteArtifacts(adir); err != nil {
		t.Fatal(err)
	}
	return readArtifacts(t, adir), res
}

// daemonArtifacts runs the spec through the persistent store + scheduler
// (the daemon path) and returns the finished job's artifacts.
func daemonArtifacts(t *testing.T, spec JobSpec) (map[string][]byte, *Job) {
	t.Helper()
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(st, SchedulerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	final, err := s.Wait(ctx, job.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != StateDone {
		t.Fatalf("job finished %s (error %q), want done", final.State, final.Error)
	}
	return readArtifacts(t, st.ArtifactsDir(job.ID)), final
}

func compareArtifacts(t *testing.T, want, got map[string][]byte) {
	t.Helper()
	if len(want) == 0 {
		t.Fatal("no artifacts to compare")
	}
	if len(got) != len(want) {
		t.Fatalf("artifact sets differ: want %d files, got %d", len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("artifact %s missing", name)
		}
		if string(g) != string(w) {
			t.Fatalf("artifact %s differs (%d vs %d bytes)", name, len(w), len(g))
		}
	}
}

// TestDaemonFuzzParity is the determinism invariant for fuzz jobs: a job
// executed by the daemon scheduler produces byte-identical artifacts to
// the equivalent direct (CLI-with-checkpoint) invocation, across worker
// counts.
func TestDaemonFuzzParity(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		spec := fuzzSpec(workers)
		want := directArtifacts(t, spec)
		got, _ := daemonArtifacts(t, spec)
		compareArtifacts(t, want, got)
		if _, ok := got[ArtifactSuite]; !ok {
			t.Fatal("fuzz job produced no suite artifact")
		}
		if _, ok := got[ArtifactFuzzStats]; !ok {
			t.Fatal("fuzz job produced no stats artifact")
		}
	}
}

// TestEnvParity pins the Env contract that Env never influences result
// bytes: for every worker count and family, Execute without a
// checkpoint directory and Execute with one write identical artifacts,
// and a trap suite ends with all four directed probes.
func TestEnvParity(t *testing.T) {
	probes := fuzz.TrapDirectedCases()
	for _, workers := range []int{1, 2, 8} {
		for _, family := range []string{"user", "trap"} {
			spec := fuzzSpec(workers)
			spec.Execs = 3000
			spec.Suite = family
			t.Run(fmt.Sprintf("workers=%d/%s", workers, family), func(t *testing.T) {
				plain, res := executeArtifacts(t, spec, false)
				ckpt, _ := executeArtifacts(t, spec, true)
				compareArtifacts(t, plain, ckpt)
				if family != "trap" {
					return
				}
				cases := res.Suite.Cases
				n := len(cases) - len(probes)
				for i, p := range probes {
					if n+i < 0 || string(cases[n+i]) != string(p) {
						t.Fatalf("trap suite does not end with directed probe %d", i)
					}
				}
			})
		}
	}
}

// TestDaemonComplianceParity is the same invariant for compliance jobs:
// generated suite, engine run and rendered/JSON reports are identical no
// matter who drove the execution.
func TestDaemonComplianceParity(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		spec := complianceSpec(workers)
		want := directArtifacts(t, spec)
		got, _ := daemonArtifacts(t, spec)
		compareArtifacts(t, want, got)
		if _, ok := got[ArtifactReport]; !ok {
			t.Fatal("compliance job produced no report artifact")
		}
	}
}

// TestSchedulerSuspendResumeParity closes the scheduler mid-job (the
// graceful-shutdown path), reopens the store with a fresh scheduler, and
// verifies the resumed job's artifacts are byte-identical to an
// uninterrupted direct run. Each session's stage_summary events cover
// that session only, so a worker's mutate counts over both sessions sum
// to its sampled steps over the whole budget.
func TestSchedulerSuspendResumeParity(t *testing.T) {
	spec := fuzzSpec(2)
	spec.Execs = 60000
	spec.CheckpointEvery = 3000
	want := directArtifacts(t, spec)

	var stream bytes.Buffer
	events := obs.NewEventLog(&stream)
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(st, SchedulerConfig{Events: events})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, s, job.ID, StateRunning)
	time.Sleep(150 * time.Millisecond) // let it get past a checkpoint
	s.Close()

	onDisk, err := st.Get(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	switch onDisk.State {
	case StateQueued:
		if onDisk.Resumes == 0 {
			t.Fatal("suspended job did not count a resume")
		}
	case StateDone:
		t.Log("job completed before shutdown; parity still checked")
	default:
		t.Fatalf("after close, job is %s, want queued or done", onDisk.State)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(st2, SchedulerConfig{Events: events})
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	defer s2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	final, err := s2.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("resumed job finished %s (error %q), want done", final.State, final.Error)
	}
	compareArtifacts(t, want, readArtifacts(t, st2.ArtifactsDir(job.ID)))

	if err := events.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadEvents(&stream)
	if err != nil {
		t.Fatal(err)
	}
	mutate := map[int]uint64{}
	for _, ev := range evs {
		if ev.Type == "stage_summary" {
			mutate[ev.Worker] += ev.Stages[obs.StageMutate.String()].Count
		}
	}
	sampled := obs.SampleEvery * (spec.Execs / obs.SampleEvery)
	for w := 0; w < spec.Workers; w++ {
		if mutate[w] != sampled {
			t.Errorf("worker %d: stage_summary mutate counts sum to %d, want %d", w, mutate[w], sampled)
		}
	}
}

// TestOpenRecoversKilledRunningJob simulates kill -9: job.json says
// "running" but no scheduler owns it. Open must walk it back to queued
// with a counted resume.
func TestOpenRecoversKilledRunningJob(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	job, err := st.NewJob(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := job.transition(StateRunning); err != nil {
		t.Fatal(err)
	}
	job.StartedNS = 42
	if err := st.Put(job); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(st2, SchedulerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.Get(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateQueued || got.Resumes != 1 || got.StartedNS != 0 {
		t.Fatalf("recovered job = state %s, resumes %d, started %d; want queued/1/0",
			got.State, got.Resumes, got.StartedNS)
	}
	onDisk, err := st2.Get(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.State != StateQueued {
		t.Fatalf("recovery not persisted: disk state %s", onDisk.State)
	}
}

// TestOpenSkipsOrphanedJobDir: a kill between NewJob's MkdirAll and its
// first Put leaves a job directory without job.json. Submit never
// acknowledged that job, so Open starts without it, and the next job
// does not reuse its ID.
func TestOpenSkipsOrphanedJobDir(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	job, err := st.NewJob(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "job-000002"), 0o755); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(st2, SchedulerConfig{})
	if err != nil {
		t.Fatalf("reopening a store with an orphaned job directory: %v", err)
	}
	defer s.Close()
	if jobs := s.Jobs(); len(jobs) != 1 || jobs[0].ID != job.ID {
		t.Fatalf("recovered %d jobs, want %s alone", len(jobs), job.ID)
	}
	next, err := s.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != "job-000003" {
		t.Fatalf("next job is %s, want job-000003", next.ID)
	}
}

// TestSchedulerFailsJobWhenStateWriteFails: once the store stops taking a
// running job's state (its job.json replaced by a non-empty directory),
// cancelling the job ends it failed, with the write error as its reason
// in the job and in its job_failed event. It must not end canceled in
// memory while the disk still says running.
func TestSchedulerFailsJobWhenStateWriteFails(t *testing.T) {
	var stream bytes.Buffer
	events := obs.NewEventLog(&stream)
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(st, SchedulerConfig{Events: events})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()
	spec := fuzzSpec(1)
	spec.Execs = 1 << 40 // never finishes: the test cancels it
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, s, job.ID, StateRunning)
	path := filepath.Join(st.JobDir(job.ID), jobFileName)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	final, err := s.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed || !strings.HasPrefix(final.Error, "persisting job state: ") {
		t.Fatalf("job ended %s (error %q), want failed while persisting job state", final.State, final.Error)
	}

	s.Close()
	if err := events.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadEvents(&stream)
	if err != nil {
		t.Fatal(err)
	}
	var failed []string
	for _, ev := range evs {
		if ev.Job == job.ID && ev.Type == "job_failed" {
			failed = append(failed, ev.Detail)
		}
		if ev.Job == job.ID && ev.Type == "job_canceled" {
			t.Fatalf("job_canceled event for a job whose state could not be written: %+v", ev)
		}
	}
	if len(failed) != 1 || failed[0] != final.Error {
		t.Fatalf("job_failed details %q, want [%q]", failed, final.Error)
	}
}

// TestDaemonRefusesVersion1FuzzCheckpoint: a fuzz job whose checkpoint
// directory holds a version-1 worker checkpoint ends failed with the
// fuzzer's refusal as its reason, and the API serves it without a 500.
func TestDaemonRefusesVersion1FuzzCheckpoint(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := fuzzSpec(1)
	spec.Normalize()
	job, err := st.NewJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	wdir := filepath.Join(st.CheckpointDir(job.ID), "worker-000")
	if err := os.MkdirAll(wdir, 0o755); err != nil {
		t.Fatal(err)
	}
	v1 := map[string]any{
		"execs":         2000,
		"corpus_file":   "corpus-0000000000002000.hex",
		"frontier_file": "frontier-0000000000002000.bin",
	}
	if err := resilience.SaveJSON(filepath.Join(wdir, "state.json"), "rvfuzz-checkpoint", 1, v1); err != nil {
		t.Fatal(err)
	}

	s, err := Open(st, SchedulerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()
	srv := httptest.NewServer(NewAPI(s))
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	final, err := s.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed || !strings.Contains(final.Error, "version-1 checkpoint") ||
		!strings.Contains(final.Error, "restart the campaign") {
		t.Fatalf("job ended %s (error %q), want failed on the version-1 checkpoint", final.State, final.Error)
	}
	for _, path := range []string{"/api/v1/jobs/" + job.ID, "/api/v1/jobs/" + job.ID + "/artifacts"} {
		code, body := do(t, "GET", srv.URL+path, "")
		if code != http.StatusOK {
			t.Fatalf("GET %s = %d %s", path, code, body)
		}
	}
}

// TestOpenLoadsJobWithRemovedSpecFields: a job.json persisted while the
// spec still had "batch" and "disable_predecode" keeps loading, because
// job files decode non-strictly (new submissions decode strictly and
// reject both, see TestSubmitInvalidSpecs). The killed job resumes and
// finishes with artifacts byte-identical to the same spec without them.
func TestOpenLoadsJobWithRemovedSpecFields(t *testing.T) {
	spec := fuzzSpec(2)
	spec.Normalize()
	want := directArtifacts(t, spec)

	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	job, err := st.NewJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.transition(StateRunning); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	var old map[string]any
	if err := json.Unmarshal(raw, &old); err != nil {
		t.Fatal(err)
	}
	oldSpec := old["spec"].(map[string]any)
	oldSpec["batch"] = 8
	oldSpec["disable_predecode"] = true
	if err := resilience.SaveJSON(filepath.Join(st.JobDir(job.ID), jobFileName), jobFormat, jobVersion, old); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(st2, SchedulerConfig{})
	if err != nil {
		t.Fatalf("reopening a store with a pre-removal job.json: %v", err)
	}
	s.Start()
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	final, err := s.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Resumes != 1 {
		t.Fatalf("job finished %s after %d resumes (error %q), want done after 1", final.State, final.Resumes, final.Error)
	}
	compareArtifacts(t, want, readArtifacts(t, st2.ArtifactsDir(job.ID)))
}

func waitForState(t *testing.T, s *Scheduler, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		job, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if job.State == want || job.State.Terminal() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

func TestCancelQueuedJob(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(st, SchedulerConfig{}) // never started: job stays queued
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	job, err := s.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(job.ID)
	if got.State != StateCanceled {
		t.Fatalf("state %s, want canceled", got.State)
	}
	if err := s.Cancel(job.ID); !errors.Is(err, ErrJobTerminal) {
		t.Fatalf("second cancel = %v, want ErrJobTerminal", err)
	}
}

func TestCancelRunningJob(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(st, SchedulerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()
	spec := fuzzSpec(1)
	spec.Execs = 2000000 // long enough that cancel lands mid-run
	spec.CheckpointEvery = 2000
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, s, job.ID, StateRunning)
	if err := s.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	final, err := s.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCanceled {
		t.Fatalf("state %s, want canceled", final.State)
	}
}

// TestSchedulerRegistrySeesRunningFuzzJob: a running fuzz job's workers
// publish into the registry the scheduler was given, so the daemon's
// /metrics shows the job's executions before the job ends.
func TestSchedulerRegistrySeesRunningFuzzJob(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s, err := Open(st, SchedulerConfig{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()
	spec := fuzzSpec(2)
	spec.Execs = 1 << 40 // never finishes: the test cancels it
	spec.CheckpointEvery = 0
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, s, job.ID, StateRunning)
	deadline := time.Now().Add(30 * time.Second)
	for reg.TakeSnapshot().Counters["rvnegtest_fuzz_execs_total"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the registry showed no fuzz executions within 30 s of the job starting")
		}
		time.Sleep(time.Millisecond)
	}
	got, err := s.Get(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateRunning {
		t.Fatalf("job is %s when its executions showed, want running", got.State)
	}
	if err := s.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	final, err := s.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCanceled {
		t.Fatalf("job ended %s, want canceled", final.State)
	}
}

// TestSchedulerFuzzGaugesAfterJobs: the fuzz gauges describe running
// fuzz jobs only. After a job that runs to its end and after one
// canceled mid-run, on one scheduler, both gauges read 0 instead of
// summing every job the daemon has run, while a scrape during the
// second job reads its corpus.
func TestSchedulerFuzzGaugesAfterJobs(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s, err := Open(st, SchedulerConfig{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()
	gauges := func() [2]int64 {
		snap := reg.TakeSnapshot()
		return [2]int64{snap.Gauges["rvnegtest_fuzz_corpus_size"], snap.Gauges["rvnegtest_fuzz_coverage_bits"]}
	}
	for i, execs := range []uint64{fuzzSpec(1).Execs, 2000000} {
		spec := fuzzSpec(1)
		spec.Execs = execs
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		want := StateDone
		if i == 1 {
			waitForState(t, s, job.ID, StateRunning)
			deadline := time.Now().Add(30 * time.Second)
			for gauges()[0] == 0 {
				if time.Now().After(deadline) {
					t.Fatal("the corpus gauge stayed 0 for 30 s of a running job")
				}
				time.Sleep(time.Millisecond)
			}
			if got := gauges(); got[1] == 0 {
				t.Errorf("mid-run gauges %v, want both nonzero", got)
			}
			if err := s.Cancel(job.ID); err != nil {
				t.Fatal(err)
			}
			want = StateCanceled
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		final, err := s.Wait(ctx, job.ID)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if final.State != want {
			t.Fatalf("job %d ended %s, want %s", i, final.State, want)
		}
		if got := gauges(); got != [2]int64{} {
			t.Errorf("after job %d: gauges %v, want 0", i, got)
		}
	}
}

func TestSubmitRejectsInvalidSpec(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(st, SchedulerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bad := []JobSpec{
		{Kind: "bogus"},
		{Kind: KindFuzz}, // no execs budget
		{Kind: KindFuzz, Execs: 10, Cov: "v9"},
		{Kind: KindCompliance, Execs: 10, Sims: []string{"NoSuchSim"}},
		{Kind: KindCompliance}, // no suite, no budget
	}
	for i, spec := range bad {
		if _, err := s.Submit(spec); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("bad spec %d: err = %v, want ErrInvalidSpec", i, err)
		}
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Fatalf("rejected submissions persisted %d jobs", len(jobs))
	}
}

func TestExecuteSpecGuards(t *testing.T) {
	// A wall budget cannot be combined with checkpointing.
	_, err := Execute(context.Background(), fuzzSpec(1),
		Env{CheckpointDir: t.TempDir(), WallBudget: time.Second})
	if !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("wall budget + checkpoint: %v, want ErrInvalidSpec", err)
	}
	// A fuzz job needs an execs or a wall-time budget.
	spec := fuzzSpec(2)
	spec.Execs = 0
	if _, err := Execute(context.Background(), spec, Env{}); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("fuzz job without budget: %v, want ErrInvalidSpec", err)
	}
	// Compliance generation needs some budget.
	cs := complianceSpec(1)
	cs.Execs = 0
	if _, err := Execute(context.Background(), cs, Env{}); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("compliance without budget: %v, want ErrInvalidSpec", err)
	}
}
