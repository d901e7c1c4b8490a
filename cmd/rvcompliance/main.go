// Command rvcompliance runs Phase B: compliance testing of the simulator
// models against the reference simulator, reproducing Table I of the
// paper.
//
// Examples:
//
//	rvcompliance -generate 1000000            # fuzz a suite, then test
//	rvcompliance -suite suite.txt -bugs       # use a saved suite
//	rvcompliance -suite trap -generate 50000  # trap-rich privileged suite
//	rvcompliance -ref reference -sims Spike   # custom comparison
//
// External simulators join the comparison as subprocess adapter columns
// (see cmd/rvsutadapter for the reference adapter):
//
//	rvcompliance -generate 10000 -sut 'ext=rvsutadapter -variant VP'
//	rvcompliance -generate 10000 -sims '' -sut 'a=adapter-a' -sut 'b=adapter-b'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rvnegtest"
	"rvnegtest/internal/campaign"
	"rvnegtest/internal/compliance"
	"rvnegtest/internal/fuzz"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/sim"
	"rvnegtest/internal/torture"
)

func main() {
	var (
		suitePath = flag.String("suite", "", "saved suite file (from rvfuzz -out), or a family name (user|trap) to generate with")
		generate  = flag.Uint64("generate", 0, "generate a suite with this many fuzzer executions first")
		seconds   = flag.Float64("seconds", 0, "wall-time budget for generation")
		seed      = flag.Int64("seed", 1, "fuzzer seed for -generate")
		cov       = flag.String("cov", "v3", "coverage configuration for -generate")
		refName   = flag.String("ref", "riscvOVPsim", "reference simulator")
		simsFlag  = flag.String("sims", "Spike,VP,sail-riscv,GRIFT", "simulators under test (comma separated)")
		isasFlag  = flag.String("isa", "RV32I,RV32IMC,RV32GC", "ISA configurations (comma separated)")
		bugs      = flag.Bool("bugs", false, "print the mismatch-category breakdown per simulator")
		examples  = flag.Bool("examples", false, "print example mismatching test cases per cell")
		positive  = flag.Bool("positive", false, "use the official-style directed positive suite (per configuration)")
		tortureN  = flag.Int("torture", 0, "use a torture-style positive baseline suite with N cases per configuration")
		rounds    = flag.Int("continuous", 0, "continuous mode: repeat generate+compare for N rounds with fresh seeds")
		exportDir = flag.String("export-sigs", "", "write the reference signatures for the suite into this directory and exit")
		verifyDir = flag.String("verify-sigs", "", "compare simulators against reference signature files in this directory")
		asJSON    = flag.Bool("json", false, "emit the report as JSON (for CI pipelines); stdout carries the report alone")
		stats     = flag.Bool("stats", false, "print engine throughput and per-worker execution counts to stderr")
		progress  = flag.Bool("progress", false, "log per-shard completion to stderr while the engine runs")
		breaker   = flag.Int("breaker", 0, "consecutive harness faults before an instance is marked unhealthy (0 = default, <0 disables)")

		sutTimeout = flag.Float64("sut-timeout", 0, "external adapters: per-run wall-clock watchdog in seconds (0 = default 10s)")
		sutRetries = flag.Int("sut-retries", 0, "external adapters: kill-and-restart retries per case (0 = default 2, <0 disables)")
		sutProbe   = flag.Int("sut-halfopen", 0, "external adapters: skipped runs before a tripped breaker admits a recovery probe (0 = default, <0 stays open)")
	)
	var externals sutFlag
	flag.Var(&externals, "sut", "external SUT adapter column as NAME=COMMAND [ARGS...] (repeatable)")
	var shared campaign.Flags
	shared.Register(flag.CommandLine, -1, "compliance engine workers: N = fixed pool, -1 = one per CPU (report is identical for any value)")
	flag.Parse()

	if *positive || *tortureN > 0 {
		runPositiveBaseline(*positive, *tortureN, *seed, *isasFlag, *refName, *simsFlag, shared.Workers)
		return
	}
	if *rounds > 0 {
		runContinuous(*rounds, *generate, *seed, *cov)
		return
	}

	// -suite takes either a saved suite file or a family name: "trap"
	// (or "user") selects the template family for generation instead.
	_, isFamily := rvnegtest.ParseFamily(*suitePath)
	switch {
	case *suitePath != "" && !isFamily:
		// A saved suite file; Execute loads it.
	case *generate > 0 || *seconds > 0:
		// Generate first, budgeted by -generate / -seconds.
	case isFamily && *suitePath != "":
		fatalf("-suite %s selects a generated family; add a budget with -generate N or -seconds S", *suitePath)
	default:
		fatalf("need -suite FILE|user|trap or -generate N")
	}

	// Pre-validate names with the CLI's traditional messages; Execute
	// re-validates the full spec.
	sims := []string{}
	for _, name := range strings.Split(*simsFlag, ",") {
		// -sims '' selects no built-in columns (external-only campaigns).
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, ok := sim.ByName(name); !ok {
			fatalf("unknown simulator %q", name)
		}
		sims = append(sims, name)
	}
	if _, ok := sim.ByName(*refName); !ok {
		fatalf("unknown reference simulator %q", *refName)
	}
	if len(sims) == 0 && len(externals) == 0 {
		fatalf("no simulators under test: give -sims and/or -sut")
	}
	var isas []string
	for _, name := range strings.Split(*isasFlag, ",") {
		name = strings.TrimSpace(name)
		if _, err := isa.ParseConfig(name); err != nil {
			fatalf("%v", err)
		}
		isas = append(isas, name)
	}

	if *exportDir != "" || *verifyDir != "" {
		gen := campaign.JobSpec{Suite: *suitePath, Execs: *generate, Seed: *seed, Cov: *cov}
		suite, st, err := campaign.ComplianceSuite(gen, time.Duration(*seconds*float64(time.Second)))
		if err != nil {
			fatalf("%v", err)
		}
		if st != nil {
			printGenerated(os.Stdout, suite, *st)
		}
		runSignatureMode(suite, *exportDir, *verifyDir, *refName, sims, isas)
		return
	}

	spec := campaign.JobSpec{
		Kind:             campaign.KindCompliance,
		Suite:            *suitePath,
		Cov:              *cov,
		Seed:             *seed,
		Execs:            *generate,
		Ref:              *refName,
		Sims:             sims,
		ISAs:             isas,
		BreakerThreshold: *breaker,
		External:         externals,
		SUTTimeoutSec:    *sutTimeout,
		SUTRetries:       *sutRetries,
		SUTHalfOpen:      *sutProbe,
	}
	shared.Apply(&spec)

	ckptDir, err := shared.CheckpointDir(compliance.HasCheckpoint)
	if err != nil {
		fatalf("%v", err)
	}
	telemetry, err := shared.OpenTelemetry("rvcompliance")
	if err != nil {
		fatalf("%v", err)
	}
	defer telemetry.Close()
	env := shared.Env(ckptDir, telemetry)
	env.WallBudget = time.Duration(*seconds * float64(time.Second))
	if *progress {
		env.Progress = func(ev compliance.ProgressEvent) {
			name := ev.Sim
			if name == "" {
				name = "reference"
			}
			fmt.Fprintf(os.Stderr, "  [w%d] %v %-12s cases %d..%d (%d executed)\n",
				ev.Worker, ev.Config, name, ev.Lo, ev.Hi, ev.Execs)
		}
	}

	ctx := context.Background()
	if ckptDir != "" {
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
	}
	res, err := campaign.Execute(ctx, spec, env)
	if errors.Is(err, campaign.ErrInterrupted) {
		fmt.Fprintf(os.Stderr, "rvcompliance: interrupted, state checkpointed; continue with: rvcompliance -resume %s (plus the original flags)\n", ckptDir)
		telemetry.Close() // os.Exit skips the deferred flush
		os.Exit(130)
	}
	if err != nil {
		fatalf("%v", err)
	}
	if res.GenStats != nil {
		// With -json, stdout carries the report alone.
		banner := os.Stdout
		if *asJSON {
			banner = os.Stderr
		}
		printGenerated(banner, res.Suite, *res.GenStats)
	}
	rep := res.Report
	if *stats {
		fmt.Fprintf(os.Stderr, "engine: %s\n", res.RunStats)
	}
	if *asJSON {
		raw, err := rep.JSON()
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("%s\n", raw)
		exitDegraded(rep, telemetry.Close)
		return
	}
	fmt.Print(rep.Render())
	if *bugs {
		fmt.Println("\nFindings by mismatch category:")
		fmt.Print(rep.BugFindings())
	}
	if *examples {
		fmt.Println("\nExample mismatching cases (bytestreams, hex):")
		for i, cfg := range rep.Configs {
			for j, name := range rep.Sims {
				c := rep.Cells[i][j]
				for _, idx := range c.Examples {
					fmt.Printf("  %v %s case %d: %x\n", cfg, name, idx, res.Suite.Cases[idx])
				}
			}
		}
	}
	exitDegraded(rep, telemetry.Close)
}

// printGenerated reports a just-generated suite to w the way the CLI
// always has (trap suites count the directed probes that ride along).
func printGenerated(w io.Writer, suite *rvnegtest.Suite, st fuzz.Stats) {
	if suite.Family == rvnegtest.FamilyTrap {
		fmt.Fprintf(w, "generated %d trap-family test cases from %d executions (%.0f/s)\n\n",
			len(suite.Cases), st.Execs, st.ExecsPerSec)
	} else {
		fmt.Fprintf(w, "generated %d test cases from %d executions (%.0f/s)\n\n",
			st.TestCases, st.Execs, st.ExecsPerSec)
	}
}

// runSignatureMode handles -export-sigs and -verify-sigs for suite:
// signature interchange against a directory rather than a live
// comparison run.
func runSignatureMode(suite *rvnegtest.Suite, exportDir, verifyDir, refName string, sims, isas []string) {
	ref, ok := sim.ByName(refName)
	if !ok {
		fatalf("unknown reference simulator %q", refName)
	}
	var configs []isa.Config
	for _, name := range isas {
		cfg, err := isa.ParseConfig(name)
		if err != nil {
			fatalf("%v", err)
		}
		configs = append(configs, cfg)
	}
	if exportDir != "" {
		for _, cfg := range configs {
			if err := compliance.ExportReferenceSignatures(suite, ref, cfg, exportDir, nil); err != nil {
				fatalf("exporting signatures: %v", err)
			}
		}
		fmt.Printf("reference signatures for %d cases written under %s\n", len(suite.Cases), exportDir)
		return
	}
	for _, cfg := range configs {
		for _, name := range sims {
			v, ok := sim.ByName(name)
			if !ok {
				fatalf("unknown simulator %q", name)
			}
			cell, err := compliance.VerifyAgainstSignatures(suite, v, cfg, verifyDir)
			if err != nil {
				fatalf("verifying: %v", err)
			}
			fmt.Printf("%-8v %-12s %s\n", cfg, v.Name, cell)
		}
	}
}

// sutFlag accumulates repeated -sut NAME=COMMAND [ARGS...] values into
// external adapter columns. The command is split on whitespace (adapter
// paths with spaces are not supported; use a wrapper script).
type sutFlag []campaign.SUTSpec

func (f *sutFlag) String() string {
	var parts []string
	for _, s := range *f {
		parts = append(parts, s.Name+"="+strings.Join(s.Argv, " "))
	}
	return strings.Join(parts, ", ")
}

func (f *sutFlag) Set(v string) error {
	s, err := campaign.ParseSUT(v)
	if err != nil {
		return err
	}
	*f = append(*f, s)
	return nil
}

// exitDegraded exits with status 2 when the report contains cells degraded
// by harness faults: the comparison completed, but some results are
// Crashed/Timeout/Skipped(sut-unhealthy or adapter-level) rather than
// real verdicts. closeTelemetry runs first — os.Exit skips the deferred
// flush, and a truncated NDJSON stream would defeat the post-mortem the
// degraded exit asks for.
func exitDegraded(rep *compliance.Report, closeTelemetry func()) {
	if rep.Degraded() {
		fmt.Fprintln(os.Stderr, "rvcompliance: run degraded by harness faults (crashed, wedged, unhealthy simulators, or failed external adapters; see report)")
		closeTelemetry()
		os.Exit(2)
	}
}

// runPositiveBaseline runs positive-testing suites (the official-style
// directed suite or the torture-style random baseline) per configuration —
// these are per-extension suites, so each configuration gets its own.
func runPositiveBaseline(official bool, tortureN int, seed int64, isas, refName, sims string, workers int) {
	for _, name := range strings.Split(isas, ",") {
		cfg, err := isa.ParseConfig(strings.TrimSpace(name))
		if err != nil {
			fatalf("%v", err)
		}
		var suite *rvnegtest.Suite
		if official {
			suite, err = rvnegtest.OfficialStyleSuite(cfg)
		} else {
			suite, err = torture.Suite(seed, cfg, tortureN, 16)
		}
		if err != nil {
			fatalf("%v", err)
		}
		runner := &compliance.Runner{Configs: []isa.Config{cfg}, MaxExamples: 10, Workers: workers}
		ref, ok := sim.ByName(refName)
		if !ok {
			fatalf("unknown reference %q", refName)
		}
		runner.Ref = ref
		for _, s := range strings.Split(sims, ",") {
			v, ok := sim.ByName(strings.TrimSpace(s))
			if !ok {
				fatalf("unknown simulator %q", s)
			}
			runner.SUTs = append(runner.SUTs, v)
		}
		rep, err := runner.Run(suite)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("suite: %s\n%s\n", suite.Origin, rep.Render())
	}
}

// runContinuous repeats the generate+compare pipeline with fresh seeds.
func runContinuous(rounds int, execs uint64, seed int64, cov string) {
	if execs == 0 {
		execs = 100000
	}
	cfg := rvnegtest.DefaultFuzzConfig()
	var ok bool
	if cfg, ok = rvnegtest.CoverageConfig(cfg, cov); !ok {
		fatalf("unknown coverage configuration %q", cov)
	}
	cfg.Seed = seed
	res, err := rvnegtest.Continuous(cfg, rounds, execs, nil)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("continuous negative testing: %d rounds x %d executions\n", rounds, execs)
	for i, r := range res.Rounds {
		fmt.Printf("round %d (seed %d): %d test cases, %d new findings\n",
			i+1, r.Seed, r.TestCases, r.NewFindings)
	}
	fmt.Printf("distinct findings overall: %d\n\nfinal round:\n%s", res.Distinct, res.Last.Render())
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rvcompliance: "+format+"\n", args...)
	os.Exit(1)
}
