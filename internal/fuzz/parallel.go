package fuzz

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"rvnegtest/internal/obs"
)

// ErrInterrupted reports that a campaign stopped on context cancellation
// (operator SIGINT/SIGTERM) after checkpointing its state; resuming from
// the checkpoint directory continues bit-identically.
var ErrInterrupted = errors.New("fuzz: campaign interrupted")

// CampaignConfig shapes a (possibly parallel, possibly resumable)
// campaign around the per-fuzzer Config.
type CampaignConfig struct {
	// Workers is the number of independent fuzzers (each seeded
	// cfg.Seed + worker index); values below 1 mean 1.
	Workers int
	// ExecsEach is each worker's execution budget.
	ExecsEach uint64
	// WallBudget also bounds each worker by wall time (zero: no bound).
	// Checkpointed workers run to ExecsEach regardless: a resume needs a
	// deterministic bound.
	WallBudget time.Duration
	// CheckpointDir, when set, enables checkpoint/resume: each worker
	// keeps its state under <dir>/worker-NNN, saved every
	// CheckpointEvery executions and on cancellation, and an existing
	// checkpoint is resumed instead of starting over.
	CheckpointDir string
	// CheckpointEvery is the periodic checkpoint interval in executions
	// (default 100000 when checkpointing is enabled).
	CheckpointEvery uint64
}

// Campaign runs a campaign of cc.Workers independent fuzzers and merges
// their corpora in worker order, so the result is deterministic for a
// given (seed, workers, budget) triple regardless of scheduling — and,
// with CheckpointDir set, regardless of how many times the campaign was
// interrupted and resumed in between.
//
// A merge of two or more corpora is minimized (Minimize): a case one
// worker found can be redundant next to another worker's cases. One
// worker's corpus is returned as it is, because replaying it would keep
// every case: a fuzzer admits a case only when it adds coverage to a map
// holding exactly the coverage of the cases before it.
//
// On ctx cancellation every worker checkpoints (when enabled) and
// Campaign returns ErrInterrupted with the partial per-worker stats.
func Campaign(ctx context.Context, cfg Config, cc CampaignConfig) ([][]byte, []Stats, error) {
	workers := cc.Workers
	if workers < 1 {
		workers = 1
	}
	every := cc.CheckpointEvery
	if every == 0 {
		every = 100000
	}
	type result struct {
		corpus [][]byte
		stats  Stats
		err    error
	}
	cfg.Events.Emit(obs.Event{Type: "campaign_start", Worker: -1,
		Detail: fmt.Sprintf("workers=%d execs_each=%d", workers, cc.ExecsEach)})
	results := make([]result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := cfg
			c.Seed = cfg.Seed + int64(w)
			c.Worker = w
			var dir string
			if cc.CheckpointDir != "" {
				dir = filepath.Join(cc.CheckpointDir, fmt.Sprintf("worker-%03d", w))
			}
			f, err := newOrResume(c, dir)
			if err != nil {
				results[w].err = err
				return
			}
			err = runWorker(ctx, f, dir, cc, every)
			f.FlushTelemetry()
			f.tel.withdraw()
			results[w] = result{corpus: f.Corpus(), stats: f.Stats(), err: err}
		}(w)
	}
	wg.Wait()

	var merged [][]byte
	var stats []Stats
	interrupted := false
	for _, r := range results {
		switch {
		case r.err == nil:
		case errors.Is(r.err, context.Canceled) || errors.Is(r.err, context.DeadlineExceeded):
			interrupted = true
		default:
			return nil, nil, r.err
		}
		merged = append(merged, r.corpus...)
		stats = append(stats, r.stats)
	}
	if interrupted {
		cfg.Events.Emit(obs.Event{Type: "campaign_done", Worker: -1, Corpus: len(merged), Detail: "interrupted"})
		return merged, stats, ErrInterrupted
	}
	if workers > 1 {
		var err error
		if merged, err = Minimize(merged, cfg); err != nil {
			return nil, nil, err
		}
	}
	cfg.Events.Emit(obs.Event{Type: "campaign_done", Worker: -1, Corpus: len(merged)})
	return merged, stats, nil
}

func newOrResume(cfg Config, dir string) (*Fuzzer, error) {
	if dir != "" && HasCheckpoint(dir) {
		return Resume(cfg, dir)
	}
	return New(cfg)
}

// runWorker drives one fuzzer to its budget; with a checkpoint directory
// it runs in checkpoint-sized chunks, persisting after each chunk and
// once more on cancellation.
func runWorker(ctx context.Context, f *Fuzzer, dir string, cc CampaignConfig, every uint64) error {
	if dir == "" {
		return f.RunContext(ctx, cc.ExecsEach, cc.WallBudget)
	}
	budget := cc.ExecsEach
	for f.Execs() < budget {
		next := f.Execs() + every
		if next > budget {
			next = budget
		}
		err := f.RunContext(ctx, next, 0)
		if saveErr := f.SaveCheckpoint(dir); saveErr != nil {
			return saveErr
		}
		if err != nil {
			return err
		}
	}
	return nil
}
