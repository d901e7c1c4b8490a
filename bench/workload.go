// Package bench is the repository's benchmark: four seeded workloads that
// drive the fuzzing, compliance and campaign-daemon layers through their
// public APIs, time them from outside, and check that their outputs are
// correct. End-to-end metrics come from untraced runs; a separate traced
// run wraps the calls into each layer (the fuzz.Config.NewTarget and
// compliance.Runner.NewSim seams, Fuzzer.Step, Scheduler.Submit/Wait) in
// timing decorators and replays the workload's inputs through
// single-goroutine microbenchmarks. cmd/rvbench runs each workload in its
// own child process and prints the results.
package bench

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"rvnegtest/internal/sim"
)

// The workloads. Each is a closed loop driven by one process with at most
// two threads of work; bench/README.md records why each exists.
const (
	FuzzV3User       = "fuzz-v3-user"
	FuzzV0Trap       = "fuzz-v0-trap"
	ComplianceTable1 = "compliance-table1"
	DaemonW2         = "daemon-w2"
)

// Workloads lists every workload in run order.
var Workloads = []string{FuzzV3User, FuzzV0Trap, ComplianceTable1, DaemonW2}

// GoldenSeed is the seed golden.json records outputs for.
const GoldenSeed = 3

// Size is the amount of work in one repetition of each workload.
type Size struct {
	// FuzzExecs is one fuzz-workload repetition: a fresh campaign of
	// this many executions.
	FuzzExecs uint64
	// GenExecs generates the compliance workload's suite (untimed input
	// generation).
	GenExecs uint64
	// JobFuzzExecs is the daemon fuzz job's per-worker budget and
	// JobCheckpointEvery its checkpoint interval.
	JobFuzzExecs       uint64
	JobCheckpointEvery uint64
	// JobGenExecs is the daemon compliance job's generation budget.
	JobGenExecs uint64
	// FuzzSetups, FleetSetups and DaemonSetups are how many fuzzers,
	// compliance simulator fleets and daemon starts are timed after each
	// repetition for setup_s, so its samples spread over the run.
	FuzzSetups, FleetSetups, DaemonSetups int
	// MicroInputs caps the inputs the traced run's microbenchmarks
	// replay.
	MicroInputs int
}

// Full is the benchmark's size; golden.json holds its outputs.
var Full = Size{
	FuzzExecs:          200000,
	GenExecs:           200000,
	JobFuzzExecs:       50000,
	JobCheckpointEvery: 10000,
	JobGenExecs:        25000,
	FuzzSetups:         20,
	FleetSetups:        3,
	DaemonSetups:       20,
	MicroInputs:        20000,
}

// Options configures one workload run.
type Options struct {
	Seed int64
	// Reps is how many repetitions the run makes, at least two (one
	// untraced and one traced when tracing), so the identity checks always
	// have a pair to compare.
	Reps int
	// Trace selects the per-layer run instead of the end-to-end one.
	Trace bool
	Size  Size
	// Dir holds the run's temporary files.
	Dir string

	// wrapTarget, when set, wraps the fuzz workloads' foundation
	// simulator (tests inject sim.Faulty through it).
	wrapTarget func(sim.HookedSim) sim.HookedSim
}

// Outputs are a workload's deterministic results: digests of the
// artifacts it produced and the suite's size and coverage.
type Outputs struct {
	Digests   map[string]string `json:"digests"`
	TestCases int               `json:"test_cases"`
	CovBits   int               `json:"cov_bits"`
}

// Check is one correctness check and its verdict.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Result is one workload run.
type Result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	// Attempted counts the units of work the run attempted (fuzzer or
	// simulator executions, daemon jobs) and Failed those that failed:
	// harness faults, degraded/unhealthy/adapter-skipped cells, jobs not
	// done.
	Attempted uint64          `json:"attempted"`
	Failed    uint64          `json:"failed"`
	Metrics   map[string]Stat `json:"metrics"`
	Outputs   Outputs         `json:"outputs"`
	Checks    []Check         `json:"checks"`
	// Spans are the traced run's span aggregates.
	Spans map[string]SpanSummary `json:"spans,omitempty"`
}

// Correct reports whether every check passed.
func (r *Result) Correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func (r *Result) check(name string, ok bool, format string, args ...any) {
	c := Check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

// checkSame records whether every repetition produced the outputs of the
// first one.
func (r *Result) checkSame(name string, reps []Outputs) {
	for i := 1; i < len(reps); i++ {
		if !sameOutputs(reps[0], reps[i]) {
			r.check(name, false, "repetition %d differs from repetition 0: %v vs %v", i, reps[i], reps[0])
			return
		}
	}
	r.check(name, len(reps) >= 2, "only %d repetition(s) to compare", len(reps))
}

func sameOutputs(a, b Outputs) bool {
	if a.TestCases != b.TestCases || a.CovBits != b.CovBits || len(a.Digests) != len(b.Digests) {
		return false
	}
	for k, v := range a.Digests {
		if b.Digests[k] != v {
			return false
		}
	}
	return true
}

//go:embed golden.json
var goldenJSON []byte

// checkGolden compares the outputs with golden.json when the run is the
// recorded configuration (full size at GoldenSeed).
func (r *Result) checkGolden(opt Options) error {
	if opt.Seed != GoldenSeed || opt.Size != Full {
		return nil
	}
	var golden map[string]Outputs
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	want, ok := golden[r.Workload]
	r.check("golden", ok && sameOutputs(want, r.Outputs),
		"outputs %+v, golden.json has %+v", r.Outputs, want)
	return nil
}

// workloads maps each workload to the function that runs it and to about
// how long one full-size repetition takes on the 2-vCPU VM the baseline in
// bench/README.md comes from, while its neighbours keep it busy.
var workloads = map[string]struct {
	run  func(context.Context, *Result, Options) error
	repS float64
}{
	FuzzV3User:       {runFuzz, 5},
	FuzzV0Trap:       {runFuzz, 4},
	ComplianceTable1: {runCompliance, 2},
	DaemonW2:         {runDaemon, 3},
}

// Reps is the number of full-size repetitions of the workload that fill
// about the given number of seconds, at least two. The count depends on
// the workload and the seconds only, never on a measurement, so a faster
// and a slower commit measure the same work.
func Reps(workload string, seconds float64) int {
	w, ok := workloads[workload]
	if !ok {
		return 2
	}
	return max(2, int(seconds/w.repS))
}

// Run executes one workload.
func Run(ctx context.Context, workload string, opt Options) (*Result, error) {
	w, ok := workloads[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, Workloads)
	}
	if opt.Reps < 2 {
		return nil, fmt.Errorf("%s: %d repetitions, want at least 2", workload, opt.Reps)
	}
	res := &Result{Workload: workload, Seed: opt.Seed, Trace: opt.Trace, Metrics: map[string]Stat{}}
	if err := w.run(ctx, res, opt); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	if !opt.Trace {
		// Peak resident set size of this process, which rvbench
		// dedicates to the one workload.
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return nil, fmt.Errorf("getrusage: %w", err)
		}
		res.Metrics["max_rss_mb"] = one("MiB", float64(ru.Maxrss)/1024) // Linux reports KiB
	}
	if err := res.checkGolden(opt); err != nil {
		return nil, err
	}
	return res, nil
}

// heapSampler samples the live heap, the bytes the last GC cycle marked
// reachable, while a workload runs. The median of the samples is the
// workload's working set: unlike the resident set size or a peak, it does
// not depend on how much garbage the collector happened to leave behind
// at one moment, so it repeats from run to run, and it moves when a change
// makes the program retain more or less.
type heapSampler struct {
	done    chan struct{}
	samples chan []float64
	once    sync.Once
	median  Stat
}

// heapSampleEvery is the sampling period; the live heap changes only at
// the end of a GC cycle and the workloads run many cycles per second.
const heapSampleEvery = 10 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), samples: make(chan []float64)}
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var xs []float64
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			// The live heap reads 0 until the first GC cycle ends.
			if live := sample[0].Value.Uint64(); live > 0 {
				xs = append(xs, float64(live)/(1<<20))
			}
			select {
			case <-tick.C:
			case <-h.done:
				h.samples <- xs
				return
			}
		}
	}()
	return h
}

// stop ends sampling, waits for the sampler to exit and returns the
// median live heap in MiB. Later calls return the same value.
func (h *heapSampler) stop() Stat {
	h.once.Do(func() {
		close(h.done)
		h.median = statOf("MiB", <-h.samples)
	})
	return h.median
}

// repeat runs rep(0), rep(1), ..., rep(n-1).
func repeat(ctx context.Context, n int, rep func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := rep(i); err != nil {
			return err
		}
	}
	return nil
}

// tracedRep reports whether repetition i of a traced run is a traced one:
// traced runs alternate untraced and traced repetitions, so the tracing
// overhead is measured under the same conditions.
func tracedRep(opt Options, i int) bool { return opt.Trace && i%2 == 1 }

// repTimes accumulates a workload's untraced repetitions: each one's wall
// time, and the rate at which it did its work in wall and in reference
// time.
type repTimes struct {
	walls, rates, refRates []float64
}

// add records one repetition of work units timed by c.
func (t *repTimes) add(work float64, c *refClock) {
	t.walls = append(t.walls, c.wall.Seconds())
	t.rates = append(t.rates, work/c.wall.Seconds())
	t.refRates = append(t.refRates, work/c.ref)
}

// report sets the median repetition's rates, with the slowest and fastest
// repetitions as their extremes.
func (t *repTimes) report(m map[string]Stat) {
	m["execs_per_s"] = statOf("execs/s", t.rates)
	m["ref_execs_per_s"] = statOf("execs/s", t.refRates)
}

// setupTimes accumulates the timed set-ups of a workload in wall and in
// reference seconds.
type setupTimes struct {
	wall, ref []float64
}

// record runs fn n times and records how long each call took. The teardown
// fn returns runs untimed after each call. A probe on either side of the
// batch converts the times to reference seconds.
func (s *setupTimes) record(n int, fn func() (teardown func(), err error)) error {
	before := probe()
	var walls []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		teardown, err := fn()
		if err != nil {
			return err
		}
		walls = append(walls, time.Since(t0).Seconds())
		teardown()
	}
	scale := refScale(before, probe())
	for _, w := range walls {
		s.wall = append(s.wall, w)
		s.ref = append(s.ref, w*scale)
	}
	return nil
}

// report sets setup_s, the median set-up in reference seconds, and
// setup_wall_s, the same in wall seconds.
func (s *setupTimes) report(m map[string]Stat) {
	m["setup_s"] = statOf("s", s.ref)
	m["setup_wall_s"] = statOf("s", s.wall)
}

// memSample is a runtime.MemStats reading around one repetition.
type memSample struct {
	mallocs, bytes, gcs uint64
	pause               time.Duration
}

func readMem() memSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSample{mallocs: m.Mallocs, bytes: m.TotalAlloc, gcs: uint64(m.NumGC), pause: time.Duration(m.PauseTotalNs)}
}

// runtimeRec accumulates the runtime metrics of untraced repetitions.
type runtimeRec struct {
	allocs, bytes, gcs, pauses []float64
}

// add records the runtime cost of one repetition of ops operations.
func (rr *runtimeRec) add(before memSample, ops uint64) {
	after := readMem()
	n := float64(max(ops, 1))
	rr.allocs = append(rr.allocs, float64(after.mallocs-before.mallocs)/n)
	rr.bytes = append(rr.bytes, float64(after.bytes-before.bytes)/n)
	rr.gcs = append(rr.gcs, float64(after.gcs-before.gcs))
	rr.pauses = append(rr.pauses, float64(after.pause-before.pause)/float64(time.Millisecond))
}

func (rr *runtimeRec) report(m map[string]Stat) {
	m["runtime.allocs_per_op"] = statOf("count", rr.allocs)
	m["runtime.bytes_per_op"] = statOf("B", rr.bytes)
	m["runtime.gc_cycles"] = statOf("count", rr.gcs)
	m["runtime.gc_pause_ms"] = statOf("ms", rr.pauses)
}

// overhead reports the traced repetitions' median wall time over the
// untraced ones', in percent.
func overhead(m map[string]Stat, untraced, traced []float64) {
	u, t := statOf("s", untraced), statOf("s", traced)
	m["trace.overhead_pct"] = one("%", 100*(t.Value/u.Value-1))
}

// digest is the SHA-256 of the given byte strings, each length-prefixed.
func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}
