package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rvnegtest/internal/isa"
	"rvnegtest/internal/sim"
	"rvnegtest/internal/template"
)

// TestExecTracePrintsEveryInstruction: the -exec-trace hook watches the
// whole run, template prefix and shutdown sequence included, so it
// prints one line per instruction the outcome counts, ending in the
// dump's 30 register stores, sentinel store and halt store.
func TestExecTracePrintsEveryInstruction(t *testing.T) {
	addi := isa.MustEncode(isa.Inst{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: 1})
	bs := []byte{byte(addi), byte(addi >> 8), byte(addi >> 16), byte(addi >> 24)}
	for _, cfg := range []isa.Config{isa.RV32I, isa.RV32GC} {
		s, err := sim.New(sim.Reference, template.Platform{Layout: template.DefaultLayout, Cfg: cfg})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		out := s.RunHooked(bs, tracer{&buf})
		if want := s.Run(bs); out.Signature == nil || !reflect.DeepEqual(out, want) {
			t.Fatalf("%v: traced run %+v, untraced %+v", cfg, out, want)
		}
		lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
		if uint64(len(lines)) != out.Insts {
			t.Fatalf("%v: %d trace lines, want one per instruction (%d)", cfg, len(lines), out.Insts)
		}
		if stores := strings.Count(buf.String(), ": sw "); stores != 32 {
			t.Errorf("%v: %d sw lines, want the dump's 32", cfg, stores)
		}
	}
}

// TestSuiteCaseRunsOnItsFamily: a case from a trap suite runs on the
// trap template in the plain run, -exec-trace, -diff and -minimize, so
// Spike's zeroed mtval shows in the trap record; a -hex bytestream stays
// on the user template.
func TestSuiteCaseRunsOnItsFamily(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trap.txt")
	if err := os.WriteFile(path, []byte("# family: trap\nffffffff13000000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	o := options{sim: "Spike", isa: "RV32I", suite: path, diff: "reference", execTrace: true, minimize: true}
	if err := o.run(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		": mret\n",                         // the recording handler executed
		"minimized reproducer: ffffffff (", // the divergence needs the trap only
		"  96 trap[15].status 00000000\n",  // a 97-word trap signature
		"signatures DIFFER at words [35]\n  word 35 (trap[0].tval): 00000000 vs ffffffff\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if err := (options{sim: "Spike", isa: "RV32I", hex: "ffffffff", diff: "reference"}).run(&buf); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); strings.Contains(out, "trap") || !strings.Contains(out, "  31 sentinel deadbeef\nreference:") {
		t.Errorf("a -hex input did not run on the 32-word user template:\n%s", out)
	}
}

// TestWordNames: signature words are labelled by the platform's layout,
// one f register per word without D and the trap records behind the
// user words on the trap family.
func TestWordNames(t *testing.T) {
	rv32if, err := isa.ParseConfig("RV32IF")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		p    template.Platform
		word int
		want string
	}{
		{template.PlatformFor(template.FamilyUser, isa.RV32I), 30, "mcause"},
		{template.PlatformFor(template.FamilyUser, rv32if), 33, "f1"},
		{template.PlatformFor(template.FamilyUser, isa.RV32GC), 33, "f0.h"},
		{template.PlatformFor(template.FamilyTrap, isa.RV32I), 32, "trap.count"},
		{template.PlatformFor(template.FamilyTrap, isa.RV32I), 33, "trap[0].cause"},
		{template.PlatformFor(template.FamilyTrap, rv32if), 64 + 1 + 4*3 + 2, "trap[3].tval"},
		{template.PlatformFor(template.FamilyTrap, isa.RV32GC), 160, "trap[15].status"},
	} {
		if got := wordName(tc.p, tc.word); got != tc.want {
			t.Errorf("%v %v word %d: %q, want %q", tc.p.Family, tc.p.Cfg, tc.word, got, tc.want)
		}
	}
}
