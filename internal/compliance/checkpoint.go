package compliance

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"rvnegtest/internal/resilience"
	"rvnegtest/internal/template"
)

// Phase B checkpoints at configuration-row granularity: each completed
// Table I row is appended to state.json (atomically rewritten), so an
// interrupted run redoes at most one row. Row results are deterministic
// for a fixed worker count, so a resumed report is identical to an
// uninterrupted one. The checkpoint is bound to the suite content (by
// hash) and to the runner parameters that shape outcomes (by
// fingerprint); worker count is deliberately excluded — it changes the
// schedule, not the result.

const (
	complianceFormat  = "rvcompliance-checkpoint"
	complianceVersion = 1
	complianceState   = "state.json"
)

// savedRow is one persisted Table I row.
type savedRow struct {
	Config  string `json:"config"`
	Cells   []Cell `json:"cells"`
	Skipped int    `json:"skipped"`
}

// campaignCheckpoint is the state.json payload.
type campaignCheckpoint struct {
	Fingerprint string     `json:"fingerprint"`
	SuiteSHA256 string     `json:"suite_sha256"`
	Rows        []savedRow `json:"rows"`
}

// fingerprint captures the runner parameters a resumed run must share.
func (r *Runner) fingerprint() string {
	s := fmt.Sprintf("ref=%s suts=", r.Ref.Name)
	for _, v := range r.SUTs {
		s += v.Name + ","
	}
	s += " configs="
	for _, cfg := range r.Configs {
		s += cfg.String() + ","
	}
	s += fmt.Sprintf(" dontcare=%t maxex=%d timeout=%v breaker=%d",
		r.DontCare != nil, r.maxExamples(), r.CaseTimeout, r.breakerThreshold())
	// External columns extend the fingerprint only when present, so every
	// pre-existing checkpoint of a built-in-only campaign stays valid.
	if len(r.External) > 0 {
		s += " externals="
		for i := range r.External {
			sp := &r.External[i]
			s += sp.Name + "=" + strings.Join(sp.Argv, " ") + ","
		}
		s += fmt.Sprintf(" halfopen=%d", r.halfOpenAfter())
	}
	return s
}

func suiteHash(suite *Suite) string {
	h := sha256.New()
	// The family shapes every outcome (template, signature layout), so a
	// checkpoint must never resume across families. Only the trap family
	// writes a marker: user-family hashes — and therefore existing
	// user-campaign checkpoints — stay valid.
	if suite.Family == template.FamilyTrap {
		h.Write([]byte("family=trap\n"))
	}
	for _, bs := range suite.Cases {
		var n [4]byte
		n[0] = byte(len(bs))
		n[1] = byte(len(bs) >> 8)
		n[2] = byte(len(bs) >> 16)
		n[3] = byte(len(bs) >> 24)
		h.Write(n[:])
		h.Write(bs)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (c *campaignCheckpoint) save(dir string) error {
	return resilience.SaveJSON(filepath.Join(dir, complianceState), complianceFormat, complianceVersion, c)
}

// HasCheckpoint reports whether dir holds a saved campaign checkpoint.
func HasCheckpoint(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, complianceState))
	return err == nil
}

// loadOrInitCheckpoint resumes an existing checkpoint after validating it
// against the suite and runner, or initializes an empty one.
func loadOrInitCheckpoint(r *Runner, suite *Suite, dir string) (*campaignCheckpoint, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fp := r.fingerprint()
	sha := suiteHash(suite)
	path := filepath.Join(dir, complianceState)
	if _, err := os.Stat(path); err != nil {
		return &campaignCheckpoint{Fingerprint: fp, SuiteSHA256: sha}, nil
	}
	var ckpt campaignCheckpoint
	if _, err := resilience.LoadJSON(path, complianceFormat, complianceVersion, &ckpt); err != nil {
		return nil, err
	}
	if ckpt.Fingerprint != fp {
		return nil, fmt.Errorf("compliance: checkpoint is for a different runner:\n  checkpoint: %s\n  requested:  %s", ckpt.Fingerprint, fp)
	}
	if ckpt.SuiteSHA256 != sha {
		return nil, fmt.Errorf("compliance: checkpoint is for a different suite (hash %.12s, want %.12s)", ckpt.SuiteSHA256, sha)
	}
	if len(ckpt.Rows) > len(r.Configs) {
		return nil, fmt.Errorf("compliance: checkpoint has %d rows for %d configurations", len(ckpt.Rows), len(r.Configs))
	}
	return &ckpt, nil
}
