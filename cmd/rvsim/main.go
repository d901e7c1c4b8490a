// Command rvsim runs a single test case (a hex bytestream, a suite entry,
// or an assembled ELF) on one simulator model and prints the signature.
// A suite entry runs on its suite's template family (`# family: trap`
// selects the trap-recording template), a hex bytestream on the user
// family.
//
// Examples:
//
//	rvsim -sim reference -isa RV32I -hex 33005500
//	rvsim -sim GRIFT -isa RV32IMC -suite suite.txt -case 3
//	rvsim -sim VP -isa RV32I -hex 73000000 -trace
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"

	"rvnegtest"
	"rvnegtest/internal/compliance"
	"rvnegtest/internal/hart"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/sig"
	"rvnegtest/internal/sim"
	"rvnegtest/internal/template"
)

// options are rvsim's flags.
type options struct {
	sim, isa, hex, suite, diff string
	caseIdx                    int
	trace, execTrace, minimize bool
}

func main() {
	var o options
	flag.StringVar(&o.sim, "sim", "reference", "simulator model")
	flag.StringVar(&o.isa, "isa", "RV32GC", "ISA configuration")
	flag.StringVar(&o.hex, "hex", "", "bytestream as hex")
	flag.StringVar(&o.suite, "suite", "", "take the bytestream from this suite file")
	flag.IntVar(&o.caseIdx, "case", 0, "suite case index")
	flag.BoolVar(&o.trace, "trace", false, "print the disassembled bytestream")
	flag.BoolVar(&o.execTrace, "exec-trace", false, "print every executed instruction (full run, template included)")
	flag.StringVar(&o.diff, "diff", "", "also run this simulator and print signature differences")
	flag.BoolVar(&o.minimize, "minimize", false, "with -diff: shrink the bytestream while the divergence persists")
	flag.Parse()
	if err := o.run(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "rvsim: %v\n", err)
		os.Exit(1)
	}
}

// run runs the test case o names and prints what the flags ask for to
// w. A suite case runs on its suite's template family, a -hex
// bytestream on the user family.
func (o options) run(w io.Writer) error {
	var bs []byte
	fam := template.FamilyUser
	switch {
	case o.hex != "":
		var err error
		bs, err = hex.DecodeString(o.hex)
		if err != nil {
			return fmt.Errorf("bad -hex: %v", err)
		}
	case o.suite != "":
		suite, err := rvnegtest.LoadSuite(o.suite)
		if err != nil {
			return err
		}
		if o.caseIdx < 0 || o.caseIdx >= len(suite.Cases) {
			return fmt.Errorf("case %d out of range (suite has %d)", o.caseIdx, len(suite.Cases))
		}
		bs, fam = suite.Cases[o.caseIdx], suite.Family
	default:
		return fmt.Errorf("need -hex BYTES or -suite FILE")
	}

	cfg, err := isa.ParseConfig(o.isa)
	if err != nil {
		return err
	}
	p := template.PlatformFor(fam, cfg)
	v, ok := sim.ByName(o.sim)
	if !ok {
		return fmt.Errorf("unknown simulator %q (have: reference, riscvOVPsim, Spike, VP, GRIFT, sail-riscv)", o.sim)
	}
	s, err := sim.New(v, p)
	if err != nil {
		return err
	}

	if o.trace {
		fmt.Fprintln(w, "bytestream:")
		for pc := 0; pc < len(bs); {
			var inst isa.Inst
			if pc+1 < len(bs) && bs[pc]&3 == 3 && pc+4 <= len(bs) {
				word := uint32(bs[pc]) | uint32(bs[pc+1])<<8 | uint32(bs[pc+2])<<16 | uint32(bs[pc+3])<<24
				inst = isa.Ref.Decode32(word)
			} else if pc+2 <= len(bs) {
				inst = isa.Ref.DecodeC(uint16(bs[pc]) | uint16(bs[pc+1])<<8)
			} else {
				break
			}
			fmt.Fprintf(w, "  +%-3d %s\n", pc, isa.Disasm(inst))
			pc += int(inst.Size)
		}
	}

	if o.execTrace {
		fmt.Fprintf(w, "execution trace (%s):\n", v.Name)
		out := s.RunHooked(bs, tracer{w})
		fmt.Fprintf(w, "(%d instructions)\n", out.Insts)
	}

	out := s.Run(bs)
	printOutcome(w, p, v.Name, out)
	if o.diff == "" {
		return nil
	}
	v2, ok := sim.ByName(o.diff)
	if !ok {
		return fmt.Errorf("unknown simulator %q", o.diff)
	}
	s2, err := sim.New(v2, p)
	if err != nil {
		return err
	}
	if o.minimize {
		min := compliance.MinimizeCase(bs, s, s2, nil)
		if len(min) < len(bs) {
			fmt.Fprintf(w, "minimized reproducer: %x (%d -> %d bytes)\n", min, len(bs), len(min))
			bs = min
			out = s.Run(bs)
		} else {
			fmt.Fprintln(w, "no smaller reproducer found")
		}
	}
	out2 := s2.Run(bs)
	printOutcome(w, p, v2.Name, out2)
	if out.Signature != nil && out2.Signature != nil {
		d := sig.Diff(out.Signature, out2.Signature)
		if len(d) == 0 {
			fmt.Fprintln(w, "signatures MATCH")
		} else {
			fmt.Fprintf(w, "signatures DIFFER at words %v\n", d)
			for _, i := range d {
				fmt.Fprintf(w, "  word %2d (%s): %08x vs %08x\n", i, wordName(p, i), out.Signature[i], out2.Signature[i])
			}
		}
	}
	return nil
}

// tracer prints every executed instruction through the coverage hook. It
// does not stand in for the template prefix, the trap handler or the
// dump (no SkipPrefix, SkipTrap or SkipExit), so the run executes and
// prints them too.
type tracer struct{ w io.Writer }

func (t tracer) OnInst(inst *isa.Inst, h *hart.Hart) {
	fmt.Fprintf(t.w, "  %08x: %s\n", h.PC, isa.Disasm(*inst))
}

func (tracer) OnEdge(uint32) {}

func printOutcome(w io.Writer, p template.Platform, name string, out sim.Outcome) {
	switch {
	case out.Crashed:
		fmt.Fprintf(w, "%s: CRASH after %d instructions: %s\n", name, out.Insts, out.CrashMsg)
	case out.TimedOut:
		fmt.Fprintf(w, "%s: TIMEOUT after %d instructions\n", name, out.Insts)
	default:
		fmt.Fprintf(w, "%s: completed in %d instructions; signature:\n", name, out.Insts)
		width := 8
		if p.Family == template.FamilyTrap {
			width = len("trap[15].status")
		}
		for i, v := range out.Signature {
			fmt.Fprintf(w, "  %2d %-*s %08x\n", i, width, wordName(p, i), v)
		}
	}
}

// wordName labels signature word i of platform p: x0-x29, the mcause
// slot and the sentinel, the f registers (two words each with D, one
// without), then on the trap family the trap counter and the records.
func wordName(p template.Platform, i int) string {
	base := p.BaseSigWords()
	switch {
	case i < 30:
		return fmt.Sprintf("x%d", i)
	case i == 30:
		return "mcause"
	case i == 31:
		return "sentinel"
	case i < base && p.Cfg.Has(isa.ExtD):
		fp := i - 32
		return fmt.Sprintf("f%d.%c", fp/2, "lh"[fp%2])
	case i < base:
		return fmt.Sprintf("f%d", i-32)
	case i == base:
		return "trap.count"
	}
	k := i - base - 1
	return fmt.Sprintf("trap[%d].%s", k/4, [...]string{"cause", "epc", "tval", "status"}[k%4])
}
