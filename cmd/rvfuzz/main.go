// Command rvfuzz runs Phase A of the pipeline: fuzzer-based generation of
// a RISC-V compliance test suite (negative-testing oriented), with the
// paper's coverage configurations v0..v3.
//
// Examples:
//
//	rvfuzz -cov v3 -execs 1000000 -out suite.txt
//	rvfuzz -fig4 -execs 200000            # growth-curve experiment
//	rvfuzz -suite trap -execs 100000      # trap-rich privileged suite
//	rvfuzz -cov v1 -seconds 30 -asm-dir suite-asm
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"rvnegtest"
	"rvnegtest/internal/campaign"
	"rvnegtest/internal/compliance"
	"rvnegtest/internal/fuzz"
	"rvnegtest/internal/template"
)

func main() {
	var (
		cov       = flag.String("cov", "v3", "coverage configuration: v0|v1|v2|v3")
		execs     = flag.Uint64("execs", 0, "execution budget (0 = unbounded)")
		seconds   = flag.Float64("seconds", 0, "wall-time budget (0 = unbounded)")
		seed      = flag.Int64("seed", 1, "fuzzer seed")
		isaName   = flag.String("isa", "RV32GC", "foundation simulator ISA configuration")
		famName   = flag.String("suite", "user", "template family: user (paper's trap-terminates template) | trap (trap-recording privileged suite)")
		out       = flag.String("out", "", "write the generated suite to this file")
		asmDir    = flag.String("asm-dir", "", "export the suite as assembler sources into this directory")
		fig4      = flag.Bool("fig4", false, "run the Fig. 4 experiment (all four coverage configurations)")
		noMut     = flag.Bool("no-custom-mutator", false, "ablation: disable the instruction-aware mutator")
		noFlt     = flag.Bool("no-filter", false, "ablation: disable the static filter")
		seedSuite = flag.String("seed-suite", "", "seed the campaign with a previously generated suite")
		stats     = flag.Bool("stats", false, "print the generated suite's composition statistics")
		fltStats  = flag.Bool("filter-stats", false, "print the static filter's drop-reason histogram and acceptance rate")
		ckptEvery = flag.Uint64("checkpoint-every", 100000, "executions between periodic checkpoints")
		statsJSON = flag.String("stats-json", "", "write deterministic per-worker campaign stats as JSON to this file")
	)
	var shared campaign.Flags
	shared.Register(flag.CommandLine, 1, "parallel fuzzer workers (corpora are merged and minimized)")
	flag.Parse()
	if *execs == 0 && *seconds == 0 {
		*execs = 200000
	}
	dur := time.Duration(*seconds * float64(time.Second))

	if *fig4 {
		runFig4(*execs, dur, *seed)
		return
	}

	// Pre-validate the display-relevant names with the CLI's traditional
	// messages; Execute re-validates the full spec.
	if _, ok := rvnegtest.CoverageConfig(rvnegtest.DefaultFuzzConfig(), *cov); !ok {
		fatalf("unknown coverage configuration %q", *cov)
	}
	isaCfg, err := rvnegtest.ParseISA(*isaName)
	if err != nil {
		fatalf("%v", err)
	}
	family, ok := rvnegtest.ParseFamily(*famName)
	if !ok {
		fatalf("unknown suite family %q (want user or trap)", *famName)
	}

	spec := campaign.JobSpec{
		Kind:                 campaign.KindFuzz,
		Suite:                *famName,
		Cov:                  *cov,
		ISA:                  *isaName,
		Seed:                 *seed,
		Execs:                *execs,
		CheckpointEvery:      *ckptEvery,
		SeedSuite:            *seedSuite,
		DisableCustomMutator: *noMut,
		DisableFilter:        *noFlt,
	}
	shared.Apply(&spec)

	ckptDir, err := shared.CheckpointDir(func(dir string) bool {
		return fuzz.HasCheckpoint(filepath.Join(dir, "worker-000"))
	})
	if err != nil {
		fatalf("%v", err)
	}

	if ckptDir != "" && *seconds != 0 {
		fatalf("-seconds cannot be combined with checkpointing; resume needs a deterministic -execs bound")
	}

	telemetry, err := shared.OpenTelemetry("rvfuzz")
	if err != nil {
		fatalf("%v", err)
	}
	defer telemetry.Close()
	env := shared.Env(ckptDir, telemetry)
	env.WallBudget = dur

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := campaign.Execute(ctx, spec, env)
	if errors.Is(err, campaign.ErrInterrupted) {
		if ckptDir != "" {
			fmt.Fprintf(os.Stderr, "rvfuzz: interrupted, state checkpointed; continue with: rvfuzz -resume %s (plus the original flags)\n", ckptDir)
		} else {
			fmt.Fprintln(os.Stderr, "rvfuzz: interrupted (no -checkpoint directory, progress discarded)")
		}
		telemetry.Close() // os.Exit skips the deferred flush
		os.Exit(130)
	}
	if err != nil {
		fatalf("%v", err)
	}

	suite := res.Suite
	// Trap-family suites end with the directed probes, which the case
	// counts below leave out: merging and minimizing never touch them.
	probes := 0
	if family == template.FamilyTrap {
		probes = len(fuzz.TrapDirectedCases())
	}
	if *seedSuite != "" {
		fmt.Printf("seeded with %d prior test cases\n", res.SeedCases)
	}
	if ckptDir != "" || shared.Workers > 1 {
		fmt.Printf("configuration %s on %v (seed %d, %d workers)\n", *cov, isaCfg, *seed, shared.Workers)
		fmt.Printf("executions:     %d total\n", res.TotalExecs)
		fmt.Printf("test cases:     %d (merged)\n", len(suite.Cases)-probes)
		if res.TotalFaults > 0 {
			fmt.Printf("harness faults: %d (see quarantine directory)\n", res.TotalFaults)
		}
		if *fltStats {
			fmt.Print(res.Filter.String())
		}
	} else {
		st := res.WorkerStats[0]
		fmt.Printf("configuration %s on %v (seed %d)\n", *cov, isaCfg, *seed)
		fmt.Printf("executions:     %d (%.0f/s)\n", st.Execs, st.ExecsPerSec)
		fmt.Printf("filtered out:   %d (%.1f%%)\n", st.Dropped, pct(st.Dropped, st.Execs))
		fmt.Printf("test cases:     %d\n", st.TestCases)
		fmt.Printf("coverage:       %d bucket bits over %d points\n", st.CovBits, st.CovPoints)
		if st.Crashes+st.Timeouts > 0 {
			fmt.Printf("crashes: %d, timeouts: %d\n", st.Crashes, st.Timeouts)
		}
		if st.HarnessFaults > 0 {
			fmt.Printf("harness faults: %d (see quarantine directory)\n", st.HarnessFaults)
		}
		if *fltStats {
			fmt.Print(st.Filter.String())
		}
	}
	if *stats {
		fmt.Print(compliance.AnalyzeSuite(suite))
	}
	if *out != "" {
		if err := suite.Save(*out); err != nil {
			fatalf("saving suite: %v", err)
		}
		fmt.Printf("suite written to %s\n", *out)
	}
	if *asmDir != "" {
		if err := suite.WriteASM(*asmDir, template.DefaultLayout); err != nil {
			fatalf("exporting ASM: %v", err)
		}
		fmt.Printf("assembler sources written to %s\n", *asmDir)
	}
	if *statsJSON != "" {
		raw, err := campaign.EncodeFuzzStats(res.WorkerStats, len(suite.Cases))
		if err != nil {
			fatalf("encoding stats: %v", err)
		}
		if err := os.WriteFile(*statsJSON, raw, 0o644); err != nil {
			fatalf("writing stats: %v", err)
		}
		fmt.Printf("campaign stats written to %s\n", *statsJSON)
	}
}

func runFig4(execs uint64, dur time.Duration, seed int64) {
	results, err := rvnegtest.GrowthExperiment(execs, dur, seed)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println("# Fig. 4: number of generated test cases vs fuzzer executions")
	for _, r := range results {
		fmt.Printf("# %s: number test-cases=%d (execs=%d, %.0f exec/s, %d cov points)\n",
			r.Name, r.Stats.TestCases, r.Stats.Execs, r.Stats.ExecsPerSec, r.Stats.CovPoints)
	}
	fmt.Println("# columns: config execs testcases")
	for _, r := range results {
		for _, p := range r.Stats.Trace {
			fmt.Printf("%s %d %d\n", r.Name, p.Execs, p.TestCases)
		}
	}
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rvfuzz: "+format+"\n", args...)
	os.Exit(1)
}
