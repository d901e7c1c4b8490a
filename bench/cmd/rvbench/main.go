// Command rvbench runs the repository's benchmark (package bench). Each
// workload runs in its own child process, one after another; rvbench
// prints every metric by name and unit, checks the outputs, writes a JSON
// result file and ends with one JSON line per workload:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"NAME": {"value": V, "unit": "U"}, ...}}
//
// Run it from the repository root:
//
//	go run ./bench/cmd/rvbench [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	go run ./bench/cmd/rvbench compare BASE.json... vs HEAD.json...
//
// bench/run.sh does the same with the Go build cache kept inside the
// checkout; it is the command BENCHMARK.json names.
//
// The exit status is 0 only when every workload ran and passed every
// correctness check.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"rvnegtest/bench"
)

// childTimeout bounds one workload's child process.
const childTimeout = 170 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:]))
	}
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "all", "workload to run ("+strings.Join(bench.Workloads, ", ")+") or all")
	seed := flag.Int64("seed", bench.GoldenSeed, "workload seed; golden.json holds the outputs at the default")
	seconds := flag.Float64("seconds", 15, "about how long each workload measures: it makes as many fixed-size repetitions as fill this time on the baseline machine (BENCHMARK.json's run_seconds)")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	out := flag.String("out", filepath.Join("bench", "out", "result.json"), "result file; trace files and temporary files go beside it")
	child := flag.Bool("child", false, "run one workload in this process and print its result (rvbench starts itself this way)")
	flag.Parse()
	if flag.NArg() > 0 {
		return usage("unexpected arguments %v", flag.Args())
	}
	if *trace != 0 && *trace != 1 {
		return usage("-trace must be 0 or 1, got %d", *trace)
	}
	names := bench.Workloads
	if *workload != "all" {
		if !slices.Contains(bench.Workloads, *workload) {
			return usage("unknown workload %q", *workload)
		}
		names = []string{*workload}
	}
	dir := filepath.Dir(*out)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "rvbench:", err)
		return 1
	}
	opt := bench.Options{
		Seed:  *seed,
		Trace: *trace == 1,
		Size:  bench.Full,
		Dir:   dir,
	}
	if *child {
		opt.Reps = bench.Reps(names[0], *seconds)
		return runChild(names[0], opt)
	}

	file := &bench.File{Evidence: bench.NewEvidence(*seed)}
	code := 0
	for _, w := range names {
		res, ev, err := spawn(w, opt, *seconds, *out)
		file.Evidence.Runs = append(file.Evidence.Runs, ev)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rvbench: %s: %v\n", w, err)
			code = 1
			continue
		}
		file.Workloads = append(file.Workloads, res)
		if !res.Correct() {
			code = 1
		}
		if opt.Trace {
			if err := writeJSON(filepath.Join(dir, "trace-"+w+".json"), res); err != nil {
				fmt.Fprintln(os.Stderr, "rvbench:", err)
				code = 1
			}
		}
		if err := report(os.Stdout, res); err != nil {
			fmt.Fprintln(os.Stderr, "rvbench:", err)
			code = 1
		}
	}
	if err := writeJSON(*out, file); err != nil {
		fmt.Fprintln(os.Stderr, "rvbench:", err)
		code = 1
	}
	return code
}

func usage(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "rvbench: "+format+"\n", args...)
	flag.Usage()
	return 2
}

// runChild runs one workload in this process and prints its result as
// one JSON line.
func runChild(workload string, opt bench.Options) int {
	res, err := bench.Run(context.Background(), workload, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rvbench:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "rvbench:", err)
		return 1
	}
	return 0
}

// spawn runs one workload in a child process of its own, so the peak
// resident set size the workload reports is its own.
func spawn(workload string, opt bench.Options, seconds float64, out string) (*bench.Result, bench.RunEvidence, error) {
	ev := bench.RunEvidence{Workload: workload, Exit: -1}
	self, err := os.Executable()
	if err != nil {
		return nil, ev, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-child", "-workload", workload,
		"-seed", strconv.FormatInt(opt.Seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", map[bool]string{false: "0", true: "1"}[opt.Trace],
		"-out", out)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	err = cmd.Run()
	ev.WallS = time.Since(t0).Seconds()
	if cmd.ProcessState != nil {
		ev.Exit = cmd.ProcessState.ExitCode()
	}
	if err != nil {
		return nil, ev, fmt.Errorf("child process: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res bench.Result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, ev, fmt.Errorf("child result: %w", err)
	}
	return &res, ev, nil
}

// report prints a workload's metrics and checks, then the one-line JSON
// result of the ledger metrics for its mode.
func report(w io.Writer, res *bench.Result) error {
	mode := "end-to-end"
	if res.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (seed %d, %s): attempted %d, failed %d\n", res.Workload, res.Seed, mode, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		s := res.Metrics[name]
		fmt.Fprintf(w, "  %-28s %14.6g %-9s (min %.6g, max %.6g, n %d)\n", name, s.Value, s.Unit, s.Min, s.Max, s.N)
	}
	for _, c := range res.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED: " + c.Detail
		}
		fmt.Fprintf(w, "  check %-20s %s\n", c.Name, verdict)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct(), res.Attempted, res.Failed, map[string]value{}}
	for _, d := range bench.Ledger(res.Trace) {
		s, ok := res.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", res.Workload, d.Name)
		}
		line.Metrics[d.Name] = value{s.Value, s.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// compare implements "rvbench compare BASE.json... vs HEAD.json...".
func compare(args []string) int {
	i := slices.Index(args, "vs")
	if i < 1 || i == len(args)-1 {
		fmt.Fprintln(os.Stderr, "usage: rvbench compare BASE.json... vs HEAD.json...")
		return 2
	}
	base, err := load(args[:i])
	if err == nil {
		var head []*bench.File
		if head, err = load(args[i+1:]); err == nil {
			err = bench.WriteComparison(os.Stdout, bench.Compare(base, head))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rvbench compare:", err)
		return 1
	}
	return 0
}

func load(paths []string) ([]*bench.File, error) {
	var files []*bench.File
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f bench.File
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		files = append(files, &f)
	}
	return files, nil
}
