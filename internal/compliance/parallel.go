// The sharded compliance engine: the one engine behind Runner.Run at
// every worker count.
//
// Phase B is embarrassingly parallel: every test-case execution owns a
// pre-loaded simulator image, so case i on worker A's simulator never
// observes case j on worker B's. The engine shards suite.Cases into one
// contiguous index range per worker and gives every worker its own
// sim.New of the reference and of the SUT column being run (the paper's
// "pre-loaded template" setup: the template is assembled once per
// platform and process, and each simulator loads its own copy).
//
// Determinism argument (the report is bit-identical for every worker
// count): the reference pass completes for every shard before any
// column runs, and a shard's comparisons read only its own range of
// reference outcomes, so there is no cross-shard data flow at all. The
// partial cells are merged in shard order, and shards are contiguous
// ascending case ranges, so counter sums and example-index
// concatenation reproduce exactly one case-order traversal of the
// suite, which is what a single worker performs.
package compliance

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"rvnegtest/internal/isa"
	"rvnegtest/internal/obs"
	"rvnegtest/internal/sim"
	"rvnegtest/internal/template"
)

// WorkerStats is one worker's share of a Run.
type WorkerStats struct {
	// Execs counts the simulator executions (reference + SUT runs) the
	// worker performed. Skipped cases do not execute.
	Execs int
}

// RunStats summarizes the execution engine's work for one Runner.Run.
type RunStats struct {
	Workers     int
	Execs       int // total simulator executions across all workers
	Duration    time.Duration
	CasesPerSec float64 // case executions per wall-clock second
	PerWorker   []WorkerStats
}

// String renders a one-line throughput summary plus the per-worker
// execution counts.
func (s RunStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d workers, %d executions in %v (%.0f cases/s)",
		s.Workers, s.Execs, s.Duration.Round(time.Millisecond), s.CasesPerSec)
	if len(s.PerWorker) > 1 {
		b.WriteString("; per-worker execs:")
		for _, w := range s.PerWorker {
			fmt.Fprintf(&b, " %d", w.Execs)
		}
	}
	return b.String()
}

// ProgressEvent reports one completed shard of work: the reference pass
// (Sim == "") or one SUT pass over the worker's case range [Lo, Hi).
type ProgressEvent struct {
	Config isa.Config
	Sim    string
	Worker int
	Lo, Hi int
	// Execs is the number of cases actually executed in the shard
	// (excludes skipped cases).
	Execs int
}

// workerCount resolves the Workers knob: 0 means 1, negative means one
// worker per available CPU.
func (r *Runner) workerCount() int {
	if r.Workers < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if r.Workers == 0 {
		return 1
	}
	return r.Workers
}

// addExecs accumulates execution counts into the per-worker stats.
func (r *Runner) addExecs(worker, n int) {
	r.Stats.PerWorker[worker].Execs += n
	r.Stats.Execs += n
	if r.tel != nil {
		r.tel.execs.Add(uint64(n))
	}
}

// shard is a contiguous [Lo, Hi) range of case indexes.
type shard struct{ lo, hi int }

// shardRanges splits n cases into `workers` near-equal contiguous ranges
// (the first n%workers shards are one case longer). Empty shards are
// produced when workers > n, keeping worker indexes stable.
func shardRanges(n, workers int) []shard {
	out := make([]shard, workers)
	base, rem := n/workers, n%workers
	lo := 0
	for w := range out {
		size := base
		if w < rem {
			size++
		}
		out[w] = shard{lo, lo + size}
		lo += size
	}
	return out
}

// runConfig computes one configuration row. The reference pass runs
// first, over every worker's shard; then each supported column in turn
// gets one private instance per worker (breaker and watchdog rebuilds
// included, so the resilience machinery needs no locking), runs them
// over their shards, closes them and merges the partial cells in shard
// order. Taking one column at a time keeps at most two simulators per
// worker alive, the reference's and the current column's.
func (r *Runner) runConfig(ctx context.Context, suite *Suite, cfg isa.Config, workers int) ([]Cell, int, error) {
	maxEx := r.maxExamples()
	trapBase := suite.trapBase(cfg)
	p := template.PlatformFor(suite.Family, cfg)
	shards := shardRanges(len(suite.Cases), workers)

	// The Progress hook is documented as never being called
	// concurrently; serialize emissions from the worker goroutines.
	var progressMu sync.Mutex
	emit := func(ev ProgressEvent) {
		if r.Progress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		r.Progress(ev)
	}

	refIns, err := r.newInstances(r.Ref, p, workers)
	if err != nil {
		return nil, 0, fmt.Errorf("compliance: reference %s on %v: %w", r.Ref.Name, cfg, err)
	}
	refOuts := make([]sim.Outcome, len(suite.Cases))
	err = r.eachShard(shards, func(w int, sh shard) (int, error) {
		if err := runRefRange(ctx, refIns[w], suite.Cases, refOuts, sh.lo, sh.hi); err != nil {
			return 0, err
		}
		emit(ProgressEvent{Config: cfg, Worker: w, Lo: sh.lo, Hi: sh.hi, Execs: sh.hi - sh.lo})
		r.tel.event(obs.Event{Type: "shard_done", Config: cfg.String(), Sim: r.Ref.Name,
			Worker: w, Lo: sh.lo, Hi: sh.hi, Execs: uint64(sh.hi - sh.lo)})
		return sh.hi - sh.lo, nil
	})
	if err != nil {
		return nil, 0, err
	}

	row := make([]Cell, len(r.cols))
	for j := range r.cols {
		col := &r.cols[j]
		if !col.supports(cfg, suite.Family) {
			continue
		}
		ins, err := r.newColInstances(col, p, workers)
		if err != nil {
			return nil, 0, fmt.Errorf("compliance: %s on %v: %w", col.name, cfg, err)
		}
		partials := make([]Cell, workers)
		err = r.eachShard(shards, func(w int, sh shard) (int, error) {
			var t0 time.Time
			if r.tel != nil {
				t0 = time.Now()
			}
			n, err := runCaseRange(ctx, &partials[w], refOuts, ins[w], suite.Cases,
				sh.lo, sh.hi, maxEx, trapBase, r.DontCare)
			if err != nil {
				return n, err
			}
			emit(ProgressEvent{Config: cfg, Sim: col.name, Worker: w, Lo: sh.lo, Hi: sh.hi, Execs: n})
			if r.tel != nil {
				r.tel.event(obs.Event{Type: "cell_done", Config: cfg.String(), Sim: col.name,
					Worker: w, Lo: sh.lo, Hi: sh.hi, Execs: uint64(n), DurNS: time.Since(t0).Nanoseconds()})
			}
			return n, nil
		})
		closeInstances(ins)
		if err != nil {
			return nil, 0, err
		}
		// Deterministic merge: shard order equals ascending case order.
		row[j].Supported = true
		for w := range partials {
			row[j].merge(&partials[w], maxEx)
		}
	}
	return row, countSkipped(refOuts), nil
}

// eachShard runs pass on every worker's shard concurrently, waits for
// all of them, credits each worker the executions its pass reports and
// returns the passes' errors joined.
func (r *Runner) eachShard(shards []shard, pass func(w int, sh shard) (int, error)) error {
	execs := make([]int, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for w, sh := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			execs[w], errs[w] = pass(w, sh)
		}()
	}
	wg.Wait()
	for w, n := range execs {
		r.addExecs(w, n)
	}
	return errors.Join(errs...)
}
