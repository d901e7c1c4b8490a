// Command rvsim runs a single test case (a hex bytestream, a suite entry,
// or an assembled ELF) on one simulator model and prints the signature.
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

func main() {
	var (
		simName   = flag.String("sim", "reference", "simulator model")
		isaName   = flag.String("isa", "RV32GC", "ISA configuration")
		hexStream = flag.String("hex", "", "bytestream as hex")
		suitePath = flag.String("suite", "", "take the bytestream from this suite file")
		caseIdx   = flag.Int("case", 0, "suite case index")
		trace     = flag.Bool("trace", false, "print the disassembled bytestream")
		execTrace = flag.Bool("exec-trace", false, "print every executed instruction (full run, template included)")
		diffWith  = flag.String("diff", "", "also run this simulator and print signature differences")
		minimize  = flag.Bool("minimize", false, "with -diff: shrink the bytestream while the divergence persists")
	)
	flag.Parse()

	var bs []byte
	switch {
	case *hexStream != "":
		var err error
		bs, err = hex.DecodeString(*hexStream)
		if err != nil {
			fatalf("bad -hex: %v", err)
		}
	case *suitePath != "":
		suite, err := rvnegtest.LoadSuite(*suitePath)
		if err != nil {
			fatalf("%v", err)
		}
		if *caseIdx < 0 || *caseIdx >= len(suite.Cases) {
			fatalf("case %d out of range (suite has %d)", *caseIdx, len(suite.Cases))
		}
		bs = suite.Cases[*caseIdx]
	default:
		fatalf("need -hex BYTES or -suite FILE")
	}

	cfg, err := isa.ParseConfig(*isaName)
	if err != nil {
		fatalf("%v", err)
	}
	v, ok := sim.ByName(*simName)
	if !ok {
		fatalf("unknown simulator %q (have: reference, riscvOVPsim, Spike, VP, GRIFT, sail-riscv)", *simName)
	}

	if *trace {
		fmt.Println("bytestream:")
		for pc := 0; pc < len(bs); {
			var inst isa.Inst
			if pc+1 < len(bs) && bs[pc]&3 == 3 && pc+4 <= len(bs) {
				w := uint32(bs[pc]) | uint32(bs[pc+1])<<8 | uint32(bs[pc+2])<<16 | uint32(bs[pc+3])<<24
				inst = isa.Ref.Decode32(w)
			} else if pc+2 <= len(bs) {
				inst = isa.Ref.DecodeC(uint16(bs[pc]) | uint16(bs[pc+1])<<8)
			} else {
				break
			}
			fmt.Printf("  +%-3d %s\n", pc, isa.Disasm(inst))
			pc += int(inst.Size)
		}
	}

	if *execTrace {
		s := newSim(v, cfg)
		fmt.Printf("execution trace (%s):\n", v.Name)
		out := s.RunHooked(bs, tracer{os.Stdout})
		fmt.Printf("(%d instructions)\n", out.Insts)
	}

	out := run(v, cfg, bs)
	printOutcome(v.Name, out)
	if *diffWith != "" {
		v2, ok := sim.ByName(*diffWith)
		if !ok {
			fatalf("unknown simulator %q", *diffWith)
		}
		if *minimize {
			ref := newSim(v, cfg)
			sut := newSim(v2, cfg)
			min := compliance.MinimizeCase(bs, ref, sut, nil)
			if len(min) < len(bs) {
				fmt.Printf("minimized reproducer: %x (%d -> %d bytes)\n", min, len(bs), len(min))
				bs = min
				out = run(v, cfg, bs)
			} else {
				fmt.Println("no smaller reproducer found")
			}
		}
		out2 := run(v2, cfg, bs)
		printOutcome(v2.Name, out2)
		if out.Signature != nil && out2.Signature != nil {
			d := sig.Diff(out.Signature, out2.Signature)
			if len(d) == 0 {
				fmt.Println("signatures MATCH")
			} else {
				fmt.Printf("signatures DIFFER at words %v\n", d)
				for _, w := range d {
					fmt.Printf("  word %2d (%s): %08x vs %08x\n", w, wordName(w), out.Signature[w], out2.Signature[w])
				}
			}
		}
	}
}

func newSim(v *sim.Variant, cfg isa.Config) *sim.Simulator {
	s, err := sim.New(v, template.Platform{Layout: template.DefaultLayout, Cfg: cfg})
	if err != nil {
		fatalf("%v", err)
	}
	return s
}

func run(v *sim.Variant, cfg isa.Config, bs []byte) sim.Outcome {
	return newSim(v, cfg).Run(bs)
}

// tracer prints every executed instruction through the coverage hook. It
// does not stand in for the template prefix or dump (no SkipPrefix or
// SkipExit), so the run executes and prints them too.
type tracer struct{ w io.Writer }

func (t tracer) OnInst(inst *isa.Inst, h *hart.Hart) {
	fmt.Fprintf(t.w, "  %08x: %s\n", h.PC, isa.Disasm(*inst))
}

func (tracer) OnEdge(uint32) {}

func printOutcome(name string, out sim.Outcome) {
	switch {
	case out.Crashed:
		fmt.Printf("%s: CRASH after %d instructions: %s\n", name, out.Insts, out.CrashMsg)
	case out.TimedOut:
		fmt.Printf("%s: TIMEOUT after %d instructions\n", name, out.Insts)
	default:
		fmt.Printf("%s: completed in %d instructions; signature:\n", name, out.Insts)
		for i, w := range out.Signature {
			fmt.Printf("  %2d %-8s %08x\n", i, wordName(i), w)
		}
	}
}

func wordName(i int) string {
	switch {
	case i < 30:
		return fmt.Sprintf("x%d", i)
	case i == 30:
		return "mcause"
	case i == 31:
		return "sentinel"
	default:
		fp := i - 32
		return fmt.Sprintf("f%d.%c", fp/2, "lh"[fp%2])
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rvsim: "+format+"\n", args...)
	os.Exit(1)
}
