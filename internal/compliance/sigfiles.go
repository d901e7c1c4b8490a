package compliance

import (
	"fmt"
	"os"
	"path/filepath"

	"rvnegtest/internal/isa"
	"rvnegtest/internal/sig"
	"rvnegtest/internal/sim"
	"rvnegtest/internal/template"
)

// ExportReferenceSignatures runs the reference simulator over a suite and
// writes one signature file per test case under dir/<config>/, in the
// official compliance format — the "golden reference signatures (obtained
// by running the test-suite on a reference simulator)" artifact that the
// compliance flow distributes alongside the tests. A don't-care companion
// file is written when dc is non-nil (the section VI extension).
func ExportReferenceSignatures(suite *Suite, ref *sim.Variant, cfg isa.Config, dir string, dc *sig.DontCare) error {
	sub := filepath.Join(dir, cfg.String())
	if err := os.MkdirAll(sub, 0o755); err != nil {
		return err
	}
	s, err := sim.New(ref, template.PlatformFor(suite.Family, cfg))
	if err != nil {
		return err
	}
	for i, bs := range suite.Cases {
		out := s.Run(bs)
		if out.Crashed || out.TimedOut {
			return fmt.Errorf("compliance: reference failed on case %d", i)
		}
		name := filepath.Join(sub, fmt.Sprintf("test_%05d.signature", i))
		if err := os.WriteFile(name, []byte(sig.Signature(out.Signature).String()), 0o644); err != nil {
			return err
		}
		if dc != nil {
			dcName := filepath.Join(sub, fmt.Sprintf("test_%05d.dontcare", i))
			if err := os.WriteFile(dcName, []byte(dc.Format()), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// VerifyAgainstSignatures runs a simulator-under-test over a suite and
// compares its signatures with reference files previously written by
// ExportReferenceSignatures. This is the cross-machine compliance flow:
// the reference and the target need not run in the same process (or on
// the same host).
func VerifyAgainstSignatures(suite *Suite, sut *sim.Variant, cfg isa.Config, dir string) (*Cell, error) {
	sub := filepath.Join(dir, cfg.String())
	cell := &Cell{Supported: sut.Supports(cfg)}
	if !cell.Supported {
		return cell, nil
	}
	s, err := sim.New(sut, template.PlatformFor(suite.Family, cfg))
	if err != nil {
		return nil, err
	}
	trapBase := suite.trapBase(cfg)
	for i, bs := range suite.Cases {
		refText, err := os.ReadFile(filepath.Join(sub, fmt.Sprintf("test_%05d.signature", i)))
		if err != nil {
			return nil, fmt.Errorf("compliance: reference signature for case %d: %w", i, err)
		}
		refSig, err := sig.Parse(string(refText))
		if err != nil {
			return nil, err
		}
		var dc *sig.DontCare
		if dcText, err := os.ReadFile(filepath.Join(sub, fmt.Sprintf("test_%05d.dontcare", i))); err == nil {
			dc, err = sig.ParseDontCare(string(dcText))
			if err != nil {
				return nil, err
			}
		}
		cell.judge(refSig, s.Run(bs), i, defaultMaxExamples, trapBase, dc)
	}
	return cell, nil
}
