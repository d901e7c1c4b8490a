package sim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"rvnegtest/internal/coverage"
	"rvnegtest/internal/hart"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/template"
)

// Baseline differential ops. Each op is an 8-byte header and the input
// it runs:
//
//	[0]    simulator (index into the target's three)
//	[1]    bit 0: start the dump from a random hart instead of running
//	       the input to it; bits 2-4: how the run ends (the end* values);
//	       bit 5: compare footprints before the end
//	[2:4]  instruction limit past the prefix (0: 2,000 in all)
//	[4]    input length
//	[5:8]  random-hart seed
const (
	endMerge     = iota // MergeNew
	endDiscard          // DiscardRun
	endPending          // none: the next run adds to this one
	endRestore          // RestoreFrontier to the last saved frontier
	endReset            // Reset
	endMergeSave        // MergeNew, then save the frontier
)

func baselineOp(sim, flags byte, limit uint16, seed uint32, in []byte) []byte {
	h := []byte{sim, flags, byte(limit), byte(limit >> 8), byte(len(in)), byte(seed), byte(seed >> 8), byte(seed >> 16)}
	return append(h, in...)
}

// FuzzCoverageBaselineDifferential feeds one run sequence to two
// collectors: one the simulators hand the template's prefix, dump and
// handler paths to (skipper.Skip), so its map keeps the fixed hits of
// the prefix and the dump as a baseline and each run's delta against
// it, and a plain reference that watches every region execute. Both
// must give the same footprint before a run ends, and the same MergeNew
// verdict, bucket-bit total and frontier after it. The sequence switches
// keys between simulators, holding more regions than the collector's
// memo keeps, times out before dump:, makes the dump execute under the
// hook (an input that writes it, a limit inside it, mstatus.FS off),
// starts the dump from random harts, takes both of the trap family's
// handler paths, crashes (sail-riscv's decoder), and ends runs by
// MergeNew, DiscardRun, RestoreFrontier, Reset or not at all.
func FuzzCoverageBaselineDifferential(f *testing.F) {
	var sims, refs []*Simulator
	for _, p := range []struct {
		v   *Variant
		fam template.Family
		cfg isa.Config
	}{
		{Reference, template.FamilyUser, isa.RV32GC},
		{Grift, template.FamilyTrap, isa.RV32IMC},
		{Sail, template.FamilyUser, isa.RV32I},
	} {
		pl := template.PlatformFor(p.fam, p.cfg)
		s, err := New(p.v, pl)
		if err != nil {
			f.Fatal(err)
		}
		r, err := New(p.v, pl)
		if err != nil {
			f.Fatal(err)
		}
		sims, refs = append(sims, s), append(refs, r)
	}

	a := sims[0]
	addi := stream(enc(isa.Inst{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: 1}))
	sw := stream(enc(isa.Inst{Op: isa.OpSW, Rs2: 5, Imm: int32(a.exit.addr)}))
	fsOff := stream(enc(isa.Inst{Op: isa.OpCSRRW, CSR: hart.CSRMstatus}))
	crash := []byte{0x00, 0x84, 0, 0}
	// One trap takes the trap family's record path; the loop traps until
	// the record area is full and takes the other path from then on.
	illegal := stream(0xffffffff)
	trapLoop := stream(0xffffffff, enc(isa.Inst{Op: isa.OpJAL, Imm: -4}))
	body := uint16(a.Run(nil).Insts - a.entry.insts - a.exit.insts)
	inDump := body + uint16(a.exit.insts/2)
	const pend, fp, fromHart = endPending << 2, 0x20, 1
	for cov := range byte(2) {
		seq := func(ops ...[]byte) []byte { return bytes.Join(append([][]byte{{cov}}, ops...), nil) }
		f.Add(seq(
			baselineOp(0, fp, 0, 0, addi), baselineOp(0, fp, 0, 0, addi), baselineOp(0, 0, 0, 0, nil),
			baselineOp(1, fp, 0, 0, addi), baselineOp(0, fp, 0, 0, addi), baselineOp(2, fp, 0, 0, addi),
		))
		f.Add(seq(
			baselineOp(0, fp, 1, 0, addi), baselineOp(0, fp, 0, 0, addi), baselineOp(0, fp, 1, 0, addi),
			baselineOp(0, fp, inDump, 0, nil), baselineOp(0, fp, 0, 0, sw), baselineOp(0, fp, 0, 0, fsOff),
		))
		f.Add(seq(
			baselineOp(0, 0, 0, 0, nil), baselineOp(0, fromHart|fp, 0, 1, nil), baselineOp(0, fromHart|pend|fp, 0, 2, addi),
			baselineOp(0, fromHart|fp, 0, 3, nil), baselineOp(0, fromHart|endMergeSave<<2, 0, 4, nil), baselineOp(1, fromHart|fp, 0, 5, nil),
		))
		f.Add(seq(
			baselineOp(0, endMergeSave<<2, 0, 0, addi), baselineOp(0, pend, 0, 0, addi), baselineOp(0, endRestore<<2, 0, 0, nil),
			baselineOp(0, fp, 0, 0, addi), baselineOp(2, fp, 0, 0, crash), baselineOp(0, endReset<<2, 0, 0, nil),
			baselineOp(0, endDiscard<<2, 0, 0, addi), baselineOp(0, fp, 0, 0, nil),
		))
		// Two runs merged as one move every baseline point off its base
		// bucket; the next run must still merge those buckets.
		f.Add(seq(baselineOp(0, pend, 0, 0, nil), baselineOp(0, 0, 0, 0, nil), baselineOp(0, 0, 0, 0, nil)))
		// Handler paths on all three simulators: ten regions in all.
		f.Add(seq(
			baselineOp(1, fp, 0, 0, illegal), baselineOp(0, fp, 0, 0, illegal), baselineOp(1, pend|fp, 0, 0, trapLoop),
			baselineOp(2, fp, 0, 0, illegal), baselineOp(1, fp, 0, 0, illegal), baselineOp(0, fp, 0, 0, addi),
			baselineOp(1, fp, 0, 0, trapLoop), baselineOp(2, pend|fp, 0, 0, illegal), baselineOp(1, fp, 0, 0, illegal),
		))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		opts, _ := coverage.ByName([]string{"v0", "v3"}[data[0]%2])
		col, ref := coverage.NewCollector(opts), coverage.NewCollector(opts)
		full := fullPath{ref}
		saved := ref.Map.Frontier()
		for i, data := 0, data[1:]; len(data) >= 8; i++ {
			h := data[:8]
			si := int(h[0]) % len(sims)
			s, r := sims[si], refs[si]
			bs := data[8:]
			bs = bs[:min(int(h[4]), len(bs), s.Platform.Layout.MaxBytes())]
			data = data[8+len(bs):]
			s.Limit = 2000
			if l := binary.LittleEndian.Uint16(h[2:]); l != 0 {
				s.Limit = s.entry.insts + uint64(l)
			}
			r.Limit = s.Limit
			label := fmt.Sprintf("op %d on %s (flags %#x, limit %d)", i, s.Variant.Name, h[1], s.Limit)

			if h[1]&fromHart != 0 {
				// The prefix, then the dump from a random hart.
				if s.start(bs, col) != nil || r.start(bs, full) != nil {
					t.Fatal("start failed")
				}
				if s.entry.insts < s.Limit {
					// What the collector's start skipped.
					r.from, r.n = &r.reset, r.entry.insts
					r.replayRegion(full)
				}
				s.cpu = randomHart(s.cpu, s.exit.addr, uint64(h[5])|uint64(h[6])<<8|uint64(h[7])<<16)
				r.cpu = s.cpu
				s.ex.InstCount = s.cpu.Minstret % (s.Limit + 1)
				r.ex.InstCount = s.ex.InstCount
				s.finish(col, nil)
				r.finish(full, nil)
			} else {
				s.RunHooked(bs, col)
				r.RunHooked(bs, full)
			}

			if h[1]&fp != 0 {
				if got, want := col.Map.RunFootprint(), ref.Map.RunFootprint(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: footprint %v, reference %v", label, got, want)
				}
			}
			switch h[1] >> 2 & 7 {
			case endDiscard:
				col.Map.DiscardRun()
				ref.Map.DiscardRun()
			case endPending:
			case endRestore:
				if col.Map.RestoreFrontier(saved) != nil || ref.Map.RestoreFrontier(saved) != nil {
					t.Fatal("restore failed")
				}
			case endReset:
				col.Map.Reset()
				ref.Map.Reset()
			default:
				if got, want := col.Map.MergeNew(), ref.Map.MergeNew(); got != want {
					t.Fatalf("%s: MergeNew %v, reference %v", label, got, want)
				}
				if h[1]>>2&7 == endMergeSave {
					saved = ref.Map.Frontier()
				}
			}
			if got, want := col.Map.BucketBits(), ref.Map.BucketBits(); got != want {
				t.Fatalf("%s: %d bucket bits, reference %d", label, got, want)
			}
			if !bytes.Equal(col.Map.Frontier(), ref.Map.Frontier()) {
				t.Fatalf("%s: frontier diverged", label)
			}
		}
	})
}
