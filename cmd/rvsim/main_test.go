package main

import (
	"bytes"
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
