package fuzz

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rvnegtest/internal/obs"
	"rvnegtest/internal/resilience"
	"rvnegtest/internal/template"
)

// A fuzzer's checkpoint is one file, <dir>/state.json, which every save
// replaces atomically (resilience.SaveJSON): a crash mid-save leaves the
// previous checkpoint or the new one, never a mix.
const (
	checkpointFormat  = "rvfuzz-checkpoint"
	checkpointVersion = 2
	stateFile         = "state.json"
)

// checkpointState is the state.json payload: everything Step consults
// besides the config itself, so a resumed fuzzer continues the exact
// mutation/coverage trajectory of the interrupted one. encoding/json
// writes its byte slices as base64.
type checkpointState struct {
	Fingerprint   string    `json:"fingerprint"`
	Execs         uint64    `json:"execs"`
	Dropped       uint64    `json:"dropped"`
	Crashes       uint64    `json:"crashes"`
	Timeouts      uint64    `json:"timeouts"`
	HarnessFaults uint64    `json:"harness_faults"`
	Stall         int       `json:"stall"`
	CurLen        int       `json:"cur_len"`
	ElapsedNS     int64     `json:"elapsed_ns"`
	RNG           [4]uint64 `json:"rng"`
	// FilterCounts holds analysis.Stats.Counts raw: the Stats JSON view is
	// a human-readable projection without an inverse.
	FilterCounts []uint64 `json:"filter_counts"`
	CovBits      int      `json:"cov_bits"`
	// Cases is the corpus in collection order. It also carries the growth
	// trace: evaluate appends a case and its trace point together, so
	// point i is (Cases[i].Execs, i+1).
	Cases    []checkpointCase `json:"cases"`
	Pending  [][]byte         `json:"pending,omitempty"` // seeds not yet replayed
	Frontier []byte           `json:"frontier"`          // coverage bucket bitmap
}

// checkpointCase is one collected test case and the execution that
// collected it.
type checkpointCase struct {
	Execs uint64 `json:"execs"`
	Input []byte `json:"input"`
}

// Fingerprint identifies the campaign parameters that must match between
// the checkpointing run and the resuming one for the continuation to be
// meaningful, let alone bit-identical.
func (c Config) Fingerprint() string {
	fp := fmt.Sprintf("seed=%d isa=%v maxlen=%d lencontrol=%d prob=%g nofilter=%t nocustom=%t edges=%t hash=%d rules=%t",
		c.Seed, c.ISA, c.MaxLen, c.LenControl, customMutatorProb,
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
	cases := make([]checkpointCase, len(f.corpus))
	for i, input := range f.corpus {
		cases[i] = checkpointCase{Execs: f.cases[i].execs, Input: input}
	}
	st := checkpointState{
		Fingerprint:   f.cfg.Fingerprint(),
		Execs:         f.execs,
		Dropped:       f.fstats.Dropped(),
		Crashes:       f.crashes,
		Timeouts:      f.timeout,
		HarnessFaults: f.hfaults,
		Stall:         f.stall,
		CurLen:        f.curLen,
		ElapsedNS:     int64(f.elapsed),
		RNG:           f.src.State(),
		FilterCounts:  f.fstats.Counts[:],
		CovBits:       f.col.Map.BucketBits(),
		Cases:         cases,
		Pending:       f.pending,
		Frontier:      f.col.Map.Frontier(),
	}
	if err := resilience.SaveJSON(filepath.Join(dir, stateFile), checkpointFormat, checkpointVersion, st); err != nil {
		return err
	}
	if t := f.tel; t != nil {
		t.publish(f)
		d := time.Since(t0)
		t.reg.Stage(obs.StageCheckpointWrite).Observe(d)
		t.addStage(obs.StageCheckpointWrite, d, 1)
		t.event(obs.Event{Type: "checkpoint", Execs: f.execs, Corpus: len(f.corpus)})
	}
	return nil
}

// HasCheckpoint reports whether dir holds a checkpoint state file.
func HasCheckpoint(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, stateFile))
	return err == nil
}

// Resume reconstructs a fuzzer from a checkpoint directory. cfg must
// describe the same campaign (same fingerprint) as the run that wrote the
// checkpoint; the resumed fuzzer then continues bit-identically to an
// uninterrupted run of the same seed. Checkpoints of an older format
// version are refused: only the build that wrote one can finish it.
//
// Each corpus entry's facts are derived again, not read from the
// checkpoint. Unless the filter is disabled, each entry is checked once
// with the campaign's filter, and a corpus holding an entry the filter
// drops is refused: a candidate identical to its corpus entry is
// counted as accepted without a check. So is a checkpoint whose drop
// count disagrees with its filter counts, which hold every drop under
// its reason.
func Resume(cfg Config, dir string) (*Fuzzer, error) {
	var st checkpointState
	version, err := resilience.LoadJSON(filepath.Join(dir, stateFile), checkpointFormat, checkpointVersion, &st)
	if err != nil {
		return nil, err
	}
	if version != checkpointVersion {
		return nil, fmt.Errorf("fuzz: %s holds a version-%d checkpoint and this build resumes only version %d: restart the campaign in an empty checkpoint directory, or finish it with the build that wrote it",
			dir, version, checkpointVersion)
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
	if err := f.col.Map.RestoreFrontier(st.Frontier); err != nil {
		return nil, err
	}
	if got := f.col.Map.BucketBits(); got != st.CovBits {
		return nil, fmt.Errorf("fuzz: checkpoint frontier has %d bucket bits, state records %d", got, st.CovBits)
	}
	if len(st.FilterCounts) != len(f.fstats.Counts) {
		return nil, fmt.Errorf("fuzz: checkpoint has %d filter counters, this build has %d",
			len(st.FilterCounts), len(f.fstats.Counts))
	}
	copy(f.fstats.Counts[:], st.FilterCounts)
	if got := f.fstats.Dropped(); got != st.Dropped {
		return nil, fmt.Errorf("fuzz: checkpoint filter counts hold %d drops, state records %d", got, st.Dropped)
	}
	f.corpus = make([][]byte, len(st.Cases))
	f.cases = make([]caseRecord, len(st.Cases))
	for i, c := range st.Cases {
		if !f.cfg.DisableFilter {
			if res := f.flt.Check(c.Input); !res.Accepted {
				return nil, fmt.Errorf("fuzz: checkpoint corpus entry %d fails the campaign's filter: %v", i, res)
			}
		}
		f.corpus[i] = c.Input
		f.cases[i] = caseRecord{execs: c.Execs, facts: f.factsOf(c.Input)}
	}
	f.pending = st.Pending
	f.execs = st.Execs
	f.crashes = st.Crashes
	f.timeout = st.Timeouts
	f.hfaults = st.HarnessFaults
	f.stall = st.Stall
	f.curLen = st.CurLen
	// The restored elapsed time is cumulative across sessions and
	// informational (excluded from Deterministic()); the session's rate
	// counts only this process's RunContext calls, from zero.
	f.elapsed = time.Duration(st.ElapsedNS)
	// The registry reports the session's share of the counts; the gauges
	// start from zero, so they still report the absolute values.
	if f.tel != nil {
		f.tel.last = f.counts()
	}
	return f, nil
}
