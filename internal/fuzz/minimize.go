package fuzz

import (
	"rvnegtest/internal/coverage"
	"rvnegtest/internal/sim"
	"rvnegtest/internal/template"
)

// Minimize reduces a corpus to a subset with identical coverage, the
// counterpart of libFuzzer's -merge: cases are replayed in order on a
// fresh collector and kept only if they still contribute new coverage.
// Distributing a minimized suite keeps compliance runs short without
// losing any of the coverage the campaign reached.
func Minimize(cases [][]byte, cfg Config) ([][]byte, error) {
	if cfg.ISA.Ext == 0 {
		cfg.ISA = DefaultConfig().ISA
	}
	target, err := sim.New(sim.Reference, template.PlatformFor(cfg.Family, cfg.ISA))
	if err != nil {
		return nil, err
	}
	col := coverage.NewCollector(cfg.Coverage)
	var kept [][]byte
	for _, bs := range cases {
		out := target.RunHooked(bs, col)
		if out.Crashed || out.TimedOut {
			col.Map.DiscardRun()
			continue
		}
		if col.Map.MergeNew() {
			kept = append(kept, bs)
		}
	}
	return kept, nil
}

// MinimizeParallel is Minimize with the replay phase sharded across
// `workers` goroutines, each owning a cloned pre-loaded simulator and a
// private collector. Each case's coverage footprint depends only on the
// case itself, so the footprints are computed concurrently and then
// greedily merged in case order — reproducing Minimize's sequential
// semantics bit-for-bit (same kept subset, same order) at any worker
// count. Worker w replays cases w, w+workers, ... and sends their
// footprints in that order on its own bounded channel, so the merger
// takes case i from channel i%workers, and at most footprintBuffer
// footprints per worker are held at once, not one per case.
func MinimizeParallel(cases [][]byte, cfg Config, workers int) ([][]byte, error) {
	if workers <= 1 || len(cases) < 2 {
		return Minimize(cases, cfg)
	}
	if workers > len(cases) {
		workers = len(cases)
	}
	if cfg.ISA.Ext == 0 {
		cfg.ISA = DefaultConfig().ISA
	}
	base, err := sim.New(sim.Reference, template.PlatformFor(cfg.Family, cfg.ISA))
	if err != nil {
		return nil, err
	}
	// All clones must exist before any worker starts: cloning copies the
	// base image's memory, which a running worker mutates.
	targets := make([]*sim.Simulator, workers)
	targets[0] = base
	for w := 1; w < workers; w++ {
		targets[w] = base.Clone()
	}
	// A case's footprint is nil when it crashed, timed out or covered
	// nothing (equivalent under the greedy merge: none can contribute a
	// new bit).
	out := make([]chan []coverage.RunPoint, workers)
	for w := range out {
		out[w] = make(chan []coverage.RunPoint, footprintBuffer)
		go func(w int, target *sim.Simulator) {
			col := coverage.NewCollector(cfg.Coverage)
			for i := w; i < len(cases); i += workers {
				var fp []coverage.RunPoint
				if o := target.RunHooked(cases[i], col); !o.Crashed && !o.TimedOut {
					fp = col.Map.RunFootprint()
				}
				col.Map.DiscardRun()
				out[w] <- fp
			}
		}(w, targets[w])
	}

	global := coverage.NewCollector(cfg.Coverage).Map
	var kept [][]byte
	for i, bs := range cases {
		if global.MergeFootprint(<-out[i%workers]) {
			kept = append(kept, bs)
		}
	}
	return kept, nil
}

// footprintBuffer is how many footprints a MinimizeParallel worker may
// run ahead of the merger. A case that runs to the instruction limit
// takes about as long as 50 ordinary cases, so a buffer of that order
// keeps the other workers busy meanwhile, and the footprints held stay
// in the hundreds of kilobytes.
const footprintBuffer = 64

// CoverageBits replays a corpus and returns the bucket-bit count it
// reaches under the given coverage configuration (for judging
// minimization quality).
func CoverageBits(cases [][]byte, cfg Config) (int, error) {
	if cfg.ISA.Ext == 0 {
		cfg.ISA = DefaultConfig().ISA
	}
	target, err := sim.New(sim.Reference, template.PlatformFor(cfg.Family, cfg.ISA))
	if err != nil {
		return 0, err
	}
	col := coverage.NewCollector(cfg.Coverage)
	for _, bs := range cases {
		out := target.RunHooked(bs, col)
		if out.Crashed || out.TimedOut {
			col.Map.DiscardRun()
			continue
		}
		col.Map.MergeNew()
	}
	return col.Map.BucketBits(), nil
}
