// Workflow demonstrates the full production flow a compliance group would
// run with this library:
//
//  1. fuzz a negative-testing suite (in parallel) and minimize it,
//  2. export golden reference signatures to disk,
//  3. verify simulators against the on-disk signatures (the cross-machine
//     compliance exchange),
//  4. triage one finding down to its minimal reproducer,
//  5. repeat the pipeline continuously with fresh seeds.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"rvnegtest"
	"rvnegtest/internal/compliance"
	"rvnegtest/internal/fuzz"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/sim"
	"rvnegtest/internal/template"
)

func main() {
	// 1. Parallel campaign + minimization.
	cfg := rvnegtest.DefaultFuzzConfig()
	cfg.Seed = 7
	cases, stats, err := fuzz.Campaign(context.Background(), cfg,
		fuzz.CampaignConfig{Workers: 4, ExecsEach: 25000})
	if err != nil {
		log.Fatal(err)
	}
	var execs uint64
	for _, s := range stats {
		execs += s.Execs
	}
	suite := &rvnegtest.Suite{Cases: cases, Origin: "workflow example"}
	fmt.Printf("1. fuzzed %d executions on 4 workers -> %d minimized test cases\n", execs, len(cases))

	// 2. Export the golden signatures (per configuration).
	dir, err := os.MkdirTemp("", "rvnegtest-sigs-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	for _, c := range []isa.Config{isa.RV32I, isa.RV32IMC} {
		if err := compliance.ExportReferenceSignatures(suite, sim.OVPSim, c, dir, nil); err != nil {
			log.Fatal(err)
		}
	}
	n := 0
	_ = filepath.WalkDir(dir, func(string, os.DirEntry, error) error { n++; return nil })
	fmt.Printf("2. exported reference signatures (%d files under %s)\n", n-1, dir)

	// 3. Verify a simulator against the on-disk references.
	var firstFinding []byte
	var findingSim *sim.Variant
	var findingCfg isa.Config
	for _, c := range []isa.Config{isa.RV32I, isa.RV32IMC} {
		for _, v := range sim.UnderTest {
			cell, err := compliance.VerifyAgainstSignatures(suite, v, c, dir)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("3. %-8v %-12s %s\n", c, v.Name, cell)
			if firstFinding == nil && len(cell.Examples) > 0 {
				firstFinding = suite.Cases[cell.Examples[0]]
				findingSim, findingCfg = v, c
			}
		}
	}

	// 4. Triage: shrink the first finding to its minimal reproducer.
	if firstFinding != nil {
		p := template.Platform{Layout: template.DefaultLayout, Cfg: findingCfg}
		ref, err := sim.New(sim.OVPSim, p)
		if err != nil {
			log.Fatal(err)
		}
		sut, err := sim.New(findingSim, p)
		if err != nil {
			log.Fatal(err)
		}
		min := compliance.MinimizeCase(firstFinding, ref, sut, nil)
		fmt.Printf("4. first %s finding minimized: %d -> %d bytes (%x)\n",
			findingSim.Name, len(firstFinding), len(min), min)
	}

	// 5. Continuous mode: two more rounds with fresh seeds.
	res, err := rvnegtest.Continuous(cfg, 2, 20000, nil)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range res.Rounds {
		fmt.Printf("5. continuous round %d (seed %d): %d new findings\n", i+1, r.Seed, r.NewFindings)
	}
}
