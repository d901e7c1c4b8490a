// Negativetesting demonstrates how the seeded simulator defects (the bug
// classes the paper found in real RISC-V simulators) surface as signature
// mismatches: one hand-crafted trigger per defect is run on the affected
// simulator model and on the reference, and the differing signature words
// are explained. It ends with the paper's section VI proposal: a
// don't-care rule that conditionally relaxes the comparison.
package main

import (
	"fmt"
	"log"

	"rvnegtest/internal/isa"
	"rvnegtest/internal/sig"
	"rvnegtest/internal/sim"
	"rvnegtest/internal/template"
)

func words(ws ...uint32) []byte {
	var out []byte
	for _, w := range ws {
		out = append(out, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	return out
}

func enc(i isa.Inst) uint32 { return isa.MustEncode(i) }

func wordName(i int) string {
	switch {
	case i < 30:
		return fmt.Sprintf("x%d", i)
	case i == 30:
		return "mcause"
	case i == 31:
		return "sentinel"
	default:
		return fmt.Sprintf("f%d", (i-32)/2)
	}
}

func demo(v *sim.Variant, cfg isa.Config, title string, bs []byte) {
	fmt.Printf("== %s ==\n", title)
	fmt.Printf("   simulator: %s, ISA: %v, bytestream: %x\n", v.Name, cfg, bs)
	p := template.Platform{Layout: template.DefaultLayout, Cfg: cfg}
	refSim, err := sim.New(sim.Reference, p)
	if err != nil {
		log.Fatal(err)
	}
	sut, err := sim.New(v, p)
	if err != nil {
		log.Fatal(err)
	}
	ref := refSim.Run(bs)
	got := sut.Run(bs)
	switch {
	case got.Crashed:
		fmt.Printf("   %s CRASHED: %s\n\n", v.Name, got.CrashMsg)
		return
	case got.TimedOut:
		fmt.Printf("   %s DID NOT TERMINATE (instruction limit reached)\n\n", v.Name)
		return
	}
	d := sig.Compare(ref.Signature, got.Signature, nil)
	if len(d) == 0 {
		fmt.Printf("   signatures match (no defect triggered)\n\n")
		return
	}
	for _, w := range d {
		fmt.Printf("   word %2d (%-8s): reference %08x, %s %08x\n",
			w, wordName(w), ref.Signature[w], v.Name, got.Signature[w])
	}
	fmt.Println()
}

func main() {
	demo(sim.Spike, isa.RV32I,
		"Spike: ECALL in the test body corrupts the signature",
		words(0x00000073))

	demo(sim.VP, isa.RV32I,
		"VP: loose ECALL decode mask accepts an invalid encoding",
		words(0x00000073|5<<7))

	demo(sim.VP, isa.RV32IMC,
		"VP: reserved compressed c.lwsp x0 executed instead of trapping",
		[]byte{0x02, 0x40, 0, 0})

	demo(sim.Grift, isa.RV32I,
		"GRIFT: link register written although the jump target is misaligned",
		words(enc(isa.Inst{Op: isa.OpJAL, Rd: 1, Imm: 6})))

	demo(sim.Grift, isa.RV32IMC,
		"GRIFT: RV32IMC target misconfigured to RV32GC accepts FADD.S",
		words(enc(isa.Inst{Op: isa.OpFADDS, Rd: 1, Rs1: 2, Rs2: 3, RM: 0})))

	demo(sim.Grift, isa.RV32GC,
		"GRIFT: SC.W succeeds without a pending LR.W reservation",
		words(enc(isa.Inst{Op: isa.OpSCW, Rd: 5, Rs1: 30, Rs2: 1})))

	demo(sim.Sail, isa.RV32I,
		"sail-riscv: invalid funct7 accepted as a valid ADD",
		words(enc(isa.Inst{Op: isa.OpADD, Rd: 5, Rs1: 1, Rs2: 2})|0x13<<25))

	demo(sim.Sail, isa.RV32IMC,
		"sail-riscv: malformed compressed pattern crashes the decoder",
		[]byte{0x00, 0x84, 0, 0})

	demo(sim.OVPSim, isa.RV32I,
		"riscvOVPsim (the reference!): custom opcode accepted as a NOP",
		words(0x0000400b))

	// Section VI, direction 3: a don't-care companion to the reference
	// signature. Here the Spike defect is deliberately masked.
	fmt.Println("== don't-care extension (section VI) ==")
	p := template.Platform{Layout: template.DefaultLayout, Cfg: isa.RV32I}
	refSim, _ := sim.New(sim.Reference, p)
	spike, _ := sim.New(sim.Spike, p)
	bs := words(0x00000073)
	ref, got := refSim.Run(bs), spike.Run(bs)
	dc := &sig.DontCare{Rules: []sig.Rule{{Word: 26, Kind: sig.CondAlways}}}
	fmt.Printf("   strict comparison:      %d mismatching words\n",
		len(sig.Compare(ref.Signature, got.Signature, nil)))
	fmt.Printf("   with don't-care (x26):  %d mismatching words\n",
		len(sig.Compare(ref.Signature, got.Signature, dc)))
	fmt.Printf("   don't-care file:\n%s", indent(dc.Format()))
}

func indent(s string) string {
	return "      " + s
}
