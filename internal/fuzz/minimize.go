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
	kept, _, err := replay(cases, cfg)
	return kept, err
}

// CoverageBits replays a corpus and returns the bucket-bit count it
// reaches under the given coverage configuration (for judging
// minimization quality).
func CoverageBits(cases [][]byte, cfg Config) (int, error) {
	_, bits, err := replay(cases, cfg)
	return bits, err
}

// replay runs the cases in order on one reference simulator and one
// collector, and returns the cases that added coverage (a crashed or
// timed-out case adds none) and the bucket bits reached.
func replay(cases [][]byte, cfg Config) ([][]byte, int, error) {
	if cfg.ISA.Ext == 0 {
		cfg.ISA = DefaultConfig().ISA
	}
	target, err := sim.New(sim.Reference, template.PlatformFor(cfg.Family, cfg.ISA))
	if err != nil {
		return nil, 0, err
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
	return kept, col.Map.BucketBits(), nil
}
