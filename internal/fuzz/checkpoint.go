package fuzz

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"rvnegtest/internal/obs"
	"rvnegtest/internal/resilience"
	"rvnegtest/internal/template"
)

// Checkpoint layout (one directory per fuzzer):
//
//	state.json             versioned envelope referencing the blobs below
//	corpus-<execs>.hex     collected corpus, one hex line per test case
//	pending-<execs>.hex    unreplayed seed corpus (only while non-empty)
//	frontier-<execs>.bin   raw coverage bucket bitmap
//
// The blobs are written first and state.json last (each atomically), and
// blob names carry the execution counter, so a crash mid-checkpoint
// leaves the previous state.json pointing at the previous, still-intact
// blobs. Blobs from older checkpoints are pruned only after the new
// state.json is durable.

const (
	checkpointFormat  = "rvfuzz-checkpoint"
	checkpointVersion = 1
	stateFile         = "state.json"
)

// checkpointState is the state.json payload: everything Step consults
// besides the config itself, so a resumed fuzzer continues the exact
// mutation/coverage trajectory of the interrupted one.
type checkpointState struct {
	Fingerprint   string       `json:"fingerprint"`
	Execs         uint64       `json:"execs"`
	Dropped       uint64       `json:"dropped"`
	Crashes       uint64       `json:"crashes"`
	Timeouts      uint64       `json:"timeouts"`
	HarnessFaults uint64       `json:"harness_faults"`
	Stall         int          `json:"stall"`
	CurLen        int          `json:"cur_len"`
	ElapsedNS     int64        `json:"elapsed_ns"`
	RNG           [4]uint64    `json:"rng"`
	Trace         []TracePoint `json:"trace"`
	// FilterCounts holds analysis.Stats.Counts raw: the Stats JSON view is
	// a human-readable projection without an inverse.
	FilterCounts []uint64 `json:"filter_counts"`
	CovBits      int      `json:"cov_bits"`
	CorpusFile   string   `json:"corpus_file"`
	PendingFile  string   `json:"pending_file,omitempty"`
	FrontierFile string   `json:"frontier_file"`
}

// Fingerprint identifies the campaign parameters that must match between
// the checkpointing run and the resuming one for the continuation to be
// meaningful, let alone bit-identical.
func (c Config) Fingerprint() string {
	fp := fmt.Sprintf("seed=%d isa=%v maxlen=%d lencontrol=%d prob=%g nofilter=%t nocustom=%t edges=%t hash=%d rules=%t",
		c.Seed, c.ISA, c.MaxLen, c.LenControl, c.CustomMutatorProb,
		c.DisableFilter, c.DisableCustomMutator,
		c.Coverage.Edges, c.Coverage.HashN, c.Coverage.Rules != nil)
	// The family changes the template, the filter semantics and the
	// coverage trajectory, so campaigns never resume across families.
	// Only the trap family appends a marker: user-family fingerprints —
	// and therefore pre-family checkpoints — stay valid.
	if c.Family == template.FamilyTrap {
		fp += " family=trap"
	}
	return fp
}

func writeHexLines(path string, cases [][]byte) error {
	var b strings.Builder
	for _, bs := range cases {
		b.WriteString(hex.EncodeToString(bs))
		b.WriteByte('\n')
	}
	return resilience.WriteFileAtomic(path, []byte(b.String()))
}

func readHexLines(path string) ([][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		bs, err := hex.DecodeString(line)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, ln+1, err)
		}
		out = append(out, bs)
	}
	return out, nil
}

// SaveCheckpoint persists the fuzzer's full campaign state under dir.
// Telemetry state is deliberately not part of the checkpoint: metrics
// and events describe a process's lifetime, not the campaign's logical
// state, and resuming must stay bit-identical whether telemetry was on
// or off when the checkpoint was written.
func (f *Fuzzer) SaveCheckpoint(dir string) error {
	t0 := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	st := checkpointState{
		Fingerprint:   f.cfg.Fingerprint(),
		Execs:         f.execs,
		Dropped:       f.dropped,
		Crashes:       f.crashes,
		Timeouts:      f.timeout,
		HarnessFaults: f.hfaults,
		Stall:         f.stall,
		CurLen:        f.curLen,
		ElapsedNS:     int64(f.elapsed),
		RNG:           f.src.State(),
		Trace:         append([]TracePoint(nil), f.trace...),
		FilterCounts:  append([]uint64(nil), f.fstats.Counts[:]...),
		CovBits:       f.col.Map.BucketBits(),
		CorpusFile:    fmt.Sprintf("corpus-%016d.hex", f.execs),
		FrontierFile:  fmt.Sprintf("frontier-%016d.bin", f.execs),
	}
	if err := writeHexLines(filepath.Join(dir, st.CorpusFile), f.corpus); err != nil {
		return err
	}
	if len(f.pending) > 0 {
		st.PendingFile = fmt.Sprintf("pending-%016d.hex", f.execs)
		if err := writeHexLines(filepath.Join(dir, st.PendingFile), f.pending); err != nil {
			return err
		}
	}
	if err := resilience.WriteFileAtomic(filepath.Join(dir, st.FrontierFile), f.col.Map.Frontier()); err != nil {
		return err
	}
	if err := resilience.SaveJSON(filepath.Join(dir, stateFile), checkpointFormat, checkpointVersion, st); err != nil {
		return err
	}
	pruneBlobs(dir, st)
	if t := f.tel; t != nil {
		t.publish(f)
		d := time.Since(t0)
		t.reg.Stage(obs.StageCheckpointWrite).Observe(d)
		t.addStage(obs.StageCheckpointWrite, d, 1)
		t.event(obs.Event{Type: "checkpoint", Execs: f.execs, Corpus: len(f.corpus)})
	}
	return nil
}

// pruneBlobs removes blob files not referenced by the just-written state.
// Best effort: leftover blobs waste space but never correctness.
func pruneBlobs(dir string, st checkpointState) {
	keep := map[string]bool{stateFile: true, st.CorpusFile: true, st.FrontierFile: true}
	if st.PendingFile != "" {
		keep[st.PendingFile] = true
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	var stale []string
	for _, e := range ents {
		name := e.Name()
		if keep[name] {
			continue
		}
		if strings.HasPrefix(name, "corpus-") || strings.HasPrefix(name, "pending-") ||
			strings.HasPrefix(name, "frontier-") {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		os.Remove(filepath.Join(dir, name))
	}
}

// HasCheckpoint reports whether dir holds a checkpoint state file.
func HasCheckpoint(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, stateFile))
	return err == nil
}

// Resume reconstructs a fuzzer from a checkpoint directory. cfg must
// describe the same campaign (same fingerprint) as the run that wrote the
// checkpoint; the resumed fuzzer then continues bit-identically to an
// uninterrupted run of the same seed.
func Resume(cfg Config, dir string) (*Fuzzer, error) {
	var st checkpointState
	if _, err := resilience.LoadJSON(filepath.Join(dir, stateFile), checkpointFormat, checkpointVersion, &st); err != nil {
		return nil, err
	}
	f, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if got := f.cfg.Fingerprint(); got != st.Fingerprint {
		return nil, fmt.Errorf("fuzz: checkpoint is for a different campaign:\n  checkpoint: %s\n  requested:  %s", st.Fingerprint, got)
	}
	if err := f.src.Restore(st.RNG); err != nil {
		return nil, err
	}
	corpus, err := readHexLines(filepath.Join(dir, st.CorpusFile))
	if err != nil {
		return nil, err
	}
	f.corpus = corpus
	f.pending = nil
	if st.PendingFile != "" {
		pending, err := readHexLines(filepath.Join(dir, st.PendingFile))
		if err != nil {
			return nil, err
		}
		f.pending = pending
	}
	frontier, err := os.ReadFile(filepath.Join(dir, st.FrontierFile))
	if err != nil {
		return nil, err
	}
	if err := f.col.Map.RestoreFrontier(frontier); err != nil {
		return nil, err
	}
	if got := f.col.Map.BucketBits(); got != st.CovBits {
		return nil, fmt.Errorf("fuzz: checkpoint frontier has %d bucket bits, state records %d", got, st.CovBits)
	}
	f.execs = st.Execs
	f.dropped = st.Dropped
	f.crashes = st.Crashes
	f.timeout = st.Timeouts
	f.hfaults = st.HarnessFaults
	f.stall = st.Stall
	f.curLen = st.CurLen
	f.elapsed = time.Duration(st.ElapsedNS) // informational; excluded from Deterministic()
	// The restored elapsed time is cumulative across sessions; the live
	// execution rate must not be diluted by it. Session-local accounting
	// starts from zero here, anchored at the checkpoint's exec count.
	f.sessElapsed = 0
	f.baseExecs = st.Execs
	f.trace = st.Trace
	if len(st.FilterCounts) != len(f.fstats.Counts) {
		return nil, fmt.Errorf("fuzz: checkpoint has %d filter counters, this build has %d",
			len(st.FilterCounts), len(f.fstats.Counts))
	}
	copy(f.fstats.Counts[:], st.FilterCounts)
	// The registry reports the session's share of the counts; the gauges
	// start from zero, so they still report the absolute values.
	if f.tel != nil {
		f.tel.last = f.counts()
	}
	return f, nil
}
