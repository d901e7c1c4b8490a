package sim

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"rvnegtest/internal/coverage"
	"rvnegtest/internal/exec"
	"rvnegtest/internal/hart"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/mem"
	"rvnegtest/internal/template"
)

// TestHandlerPaths checks that New summarizes the handler on every
// platform and proves every path: the trap family's recording handler
// has two, one that records the trap (37 instructions) and one for a
// full record area (23), both up to the same mret; the user family's
// handler has one of 5 instructions into dump:. It also pins how many
// steps eval dispatches on each path, its end included, so that losing
// constant folding or store fusion fails.
func TestHandlerPaths(t *testing.T) {
	sims, labels := platforms(t)
	for i, s := range sims {
		x := s.handler
		if x == nil {
			t.Errorf("%s: no handler summary", labels[i])
			continue
		}
		want, wantSteps := []uint64{37, 23}, []int{24, 15}
		if s.Platform.Family == template.FamilyUser {
			want, wantSteps = []uint64{5}, []int{3}
		}
		if got := x.dispatches(); !slices.Equal(got, wantSteps) {
			t.Errorf("%s: paths dispatch %v steps, want %v", labels[i], got, wantSteps)
		}
		var got []uint64
		for _, p := range x.paths {
			if !p.proven {
				t.Errorf("%s: the path of %d instructions is not proven", labels[i], p.n)
			}
			if p.end != x.paths[0].end || s.Platform.Family == template.FamilyUser && p.end != s.exit.addr {
				t.Errorf("%s: a path ends at %#x, the first at %#x, dump: at %#x", labels[i], p.end, x.paths[0].end, s.exit.addr)
			}
			got = append(got, p.n)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: paths of %v instructions, want %v", labels[i], got, want)
		}
	}
}

// TestHandlerSummaryCompiles runs summarizeHandler over hand-built
// handlers: it keeps a proven summary, with one path per branch side,
// for straight-line integer code that loads, stores and branches on a
// loaded word, and none for a handler holding an instruction the
// compiler does not take (a counter CSR access among them), a loop, or
// a known address that fails dataAddr on any path: outside memory, or
// in the handler's code even where the proof would pass.
func TestHandlerSummaryCompiles(t *testing.T) {
	p := template.PlatformFor(template.FamilyUser, isa.RV32IMC)
	const base, dump = 0x100, 0x400
	mret := enc(isa.Inst{Op: isa.OpMRET})
	for _, tc := range []struct {
		name  string
		words []uint32
		paths []uint64 // instructions per path; nil: no summary
	}{
		{"uses the counters", []uint32{
			enc(isa.Inst{Op: isa.OpCSRRS, Rd: 5, CSR: hart.CSRMcycle}),
			enc(isa.Inst{Op: isa.OpCSRRS, Rd: 6, CSR: hart.CSRMinstret}),
			enc(isa.Inst{Op: isa.OpCSRRW, Rs1: 5, CSR: hart.CSRMscratch}),
			enc(isa.Inst{Op: isa.OpSW, Rs2: 6, Imm: 0x200}),
			enc(isa.Inst{Op: isa.OpCSRRW, Rs1: 7, CSR: hart.CSRMinstret}),
			enc(isa.Inst{Op: isa.OpCSRRS, Rd: 8, CSR: hart.CSRMinstret}),
			enc(isa.Inst{Op: isa.OpCSRRS, Rd: 9, CSR: hart.CSRMcycleH}),
			mret,
		}, nil},
		{"branches on a loaded word", []uint32{
			enc(isa.Inst{Op: isa.OpLW, Rd: 5, Imm: 0x200}),
			enc(isa.Inst{Op: isa.OpSLTIU, Rd: 6, Rs1: 5, Imm: 3}),
			enc(isa.Inst{Op: isa.OpBEQ, Rs1: 6, Imm: 8}),
			enc(isa.Inst{Op: isa.OpSW, Rs1: 5, Rs2: 6, Imm: 0x204}),
			mret,
		}, []uint64{4, 3}},
		{"stores outside memory on one side", []uint32{
			enc(isa.Inst{Op: isa.OpLW, Rd: 5, Imm: 0x200}),
			enc(isa.Inst{Op: isa.OpBEQ, Rs1: 5, Imm: 8}),
			enc(isa.Inst{Op: isa.OpSW, Rs2: 5, Imm: -4}),
			mret,
		}, nil},
		{"stores into its own code", []uint32{enc(isa.Inst{Op: isa.OpSW, Rs2: 5, Imm: base}), mret}, nil},
		{"jumps to dump:", []uint32{
			enc(isa.Inst{Op: isa.OpCSRRS, Rd: 30, CSR: hart.CSRMcause}),
			enc(isa.Inst{Op: isa.OpJAL, Imm: dump - base - 4}),
		}, []uint64{2}},
		{"multiplies", []uint32{enc(isa.Inst{Op: isa.OpMUL, Rd: 5, Rs1: 6, Rs2: 7}), mret}, nil},
		{"loads a byte", []uint32{enc(isa.Inst{Op: isa.OpLB, Rd: 5, Imm: 0x200}), mret}, nil},
		{"calls", []uint32{enc(isa.Inst{Op: isa.OpJAL, Rd: 1, Imm: 4}), mret}, nil},
		{"jumps through a register", []uint32{enc(isa.Inst{Op: isa.OpJALR, Rs1: 5}), mret}, nil},
		{"loops", []uint32{enc(isa.Inst{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: 1}), enc(isa.Inst{Op: isa.OpBNE, Rs1: 5, Imm: -4}), mret}, nil},
		{"returns at once", []uint32{mret}, nil},
	} {
		m := mem.New(p.Layout.MemBase, p.Layout.MemSize)
		for i, w := range tc.words {
			if err := m.Write32(base+uint32(4*i), w); err != nil {
				t.Fatal(err)
			}
		}
		m.Snapshot()
		s := &Simulator{Variant: Reference, Platform: p, Limit: 100, eff: p.Cfg}
		cpu := hart.New(p.Cfg)
		cpu.Mtvec = base
		s.entry = &entryState{cpu: *cpu}
		s.attach(&template.Image{Platform: p, Mem: m, ExitAddr: dump}, &isa.Decoder{})
		x := s.summarizeHandler()
		if m.Dirty() {
			t.Fatalf("%s: the proof left the image dirty", tc.name)
		}
		var got []uint64
		for _, path := range x.pathsOrNil() {
			if !path.proven {
				t.Errorf("%s: the path of %d instructions is not proven", tc.name, path.n)
			}
			got = append(got, path.n)
		}
		if !slices.Equal(got, tc.paths) {
			t.Errorf("%s: paths of %v instructions, want %v", tc.name, got, tc.paths)
		}
	}
}

// TestHandlerSummaryGuards drives a trap past each guard of the handler
// summary: the handler's first word overwritten, a vectored entry (VP
// lands on a vector slot), a limit inside the handler, a hook that is no
// skipper and a v3 collector all execute the handler, while the same
// trap unhooked and under v0 takes the summary. Every run must equal
// the executed one.
func TestHandlerSummaryGuards(t *testing.T) {
	illegal := uint32(0xffffffff)
	for _, tc := range []struct {
		name  string
		v     *Variant
		words func(base int32) []uint32
		limit uint64 // instructions past the prefix; 0: 2,000 in all
		hooks []string
		taken bool
	}{
		{"direct entry", Reference, func(int32) []uint32 { return []uint32{illegal} }, 0, []string{"none", "v0"}, true},
		{"direct entry", Reference, func(int32) []uint32 { return []uint32{illegal} }, 0, []string{"v3", "no skipper"}, false},
		{"code overwritten", Reference, func(base int32) []uint32 {
			return []uint32{enc(isa.Inst{Op: isa.OpSW, Imm: base}), illegal}
		}, 0, []string{"none", "v0"}, false},
		{"vectored entry", VP, func(int32) []uint32 {
			return []uint32{enc(isa.Inst{Op: isa.OpCSRRSI, CSR: hart.CSRMtvec, Imm: 1}), illegal}
		}, 0, []string{"none", "v0"}, false},
		{"limit inside the handler", Reference, func(int32) []uint32 { return []uint32{illegal} }, 11, []string{"none", "v0"}, false},
	} {
		s, err := New(tc.v, template.PlatformFor(template.FamilyTrap, isa.RV32IMC))
		if err != nil {
			t.Fatal(err)
		}
		s.Limit = 2000
		if tc.limit != 0 {
			s.Limit = s.entry.insts + tc.limit
		}
		bs := stream(tc.words(int32(s.handler.base))...)
		for _, name := range tc.hooks {
			label := fmt.Sprintf("%s on %s under %s", tc.name, tc.v.Name, name)
			var col, ref *coverage.Collector
			hook, full := exec.Hook(nil), exec.Hook(fullPath{})
			if opts, ok := coverage.ByName(name); ok {
				col, ref = coverage.NewCollector(opts), coverage.NewCollector(opts)
				hook, full = col, fullPath{ref}
			} else if name == "no skipper" {
				hook = fullPath{}
			}
			var sig []uint32
			if col != nil {
				sig = s.Run(bs).Signature
			}
			h0 := s.handled
			got := s.RunHooked(bs, hook)
			taken := s.handled != h0
			want := s.RunHooked(bs, full)
			sameOutcome(t, label, hook, got, want, sig)
			if col != nil {
				if f, w := col.Map.RunFootprint(), ref.Map.RunFootprint(); !reflect.DeepEqual(f, w) {
					t.Fatalf("%s: footprint diverged", label)
				}
			}
			if taken != tc.taken || want.Traps == 0 {
				t.Errorf("%s: %+v, summarized %v, want %v", label, want, taken, tc.taken)
			}
			if tc.limit != 0 && (!want.TimedOut || want.Insts != s.Limit) {
				t.Errorf("%s: %+v, want a timeout after exactly %d", label, want, s.Limit)
			}
		}
	}
}

// FuzzTrapSummaryDifferential compares runs that may summarize trap
// handler paths with the same runs on a second simulator built by New
// whose handler summary is removed, on every variant × {RV32I, RV32IMC,
// RV32GC} × family × {no hook, v0, v3}. The input picks the platform (byte 0), the coverage
// (byte 1), a limit (bytes 2-3: 0 means 2,000 instructions, else that
// many past the prefix), a hart seed (bytes 4-11) and the trap family's
// trap counter (bytes 12-15); the rest is the bytestream. Each input runs
// twice: as it is, and from a random hart at the handler base (CSRs and
// the instruction count included) with the counter set. Both simulators
// must give the same Outcome and footprint and leave the same memory,
// after the run and for the next run.
func FuzzTrapSummaryDifferential(f *testing.F) {
	sims, labels := platforms(f)
	refs, _ := platforms(f)
	for _, r := range refs {
		r.handler = nil
	}
	header := func(pi, cov int, limit uint16, seed uint64, counter uint32) []byte {
		h := []byte{byte(pi), byte(cov), byte(limit), byte(limit >> 8)}
		h = binary.LittleEndian.AppendUint64(h, seed)
		return binary.LittleEndian.AppendUint32(h, counter)
	}
	illegal := uint32(0xffffffff)
	for pi, s := range sims {
		if !slices.Contains([]string{"reference/RV32GC/trap", "VP/RV32I/trap", "GRIFT/RV32IMC/trap",
			"Spike/RV32IMC/trap", "reference/RV32GC/user", "sail-riscv/RV32I/user"}, labels[pi]) {
			continue
		}
		base := int32(s.handler.base)
		for cov := range 3 {
			for i, counter := range []uint32{0, 15, 16, 0xffffffff} {
				f.Add(append(header(pi, cov, 0, uint64(i+1), counter), stream(illegal, illegal)...))
			}
			f.Add(append(header(pi, cov, 0, 5, 0), stream(enc(isa.Inst{Op: isa.OpSW, Rs2: 5, Imm: base}), illegal)...))
			f.Add(append(header(pi, cov, 11, 6, 15), stream(illegal)...))
			f.Add(append(header(pi, cov, 0, 7, 0),
				stream(enc(isa.Inst{Op: isa.OpCSRRSI, CSR: hart.CSRMtvec, Imm: 1}), illegal, illegal)...))
		}
	}
	cols := [3][2]*coverage.Collector{{}}
	for i, name := range []string{"v0", "v3"} {
		opts, _ := coverage.ByName(name)
		cols[i+1] = [2]*coverage.Collector{coverage.NewCollector(opts), coverage.NewCollector(opts)}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 16 {
			return
		}
		pi := int(data[0]) % len(sims)
		s, r := sims[pi], refs[pi]
		col, ref := cols[int(data[1])%3][0], cols[int(data[1])%3][1]
		hook, refHook := exec.Hook(nil), exec.Hook(nil)
		if col != nil {
			hook, refHook = col, ref
		}
		s.Limit = 2000
		if l := binary.LittleEndian.Uint16(data[2:]); l != 0 {
			s.Limit = s.entry.insts + uint64(l)
		}
		r.Limit = s.Limit
		bs := data[16:]
		if n := s.Platform.Layout.MaxBytes(); len(bs) > n {
			bs = bs[:n]
		}
		check := func(phase string, got, want Outcome) {
			t.Helper()
			label := labels[pi] + " " + phase
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: outcome diverged:\nsummary %+v\nexecuted %+v", label, got, want)
			}
			if col != nil {
				if f, w := col.Map.RunFootprint(), ref.Map.RunFootprint(); !reflect.DeepEqual(f, w) {
					t.Fatalf("%s: footprint diverged (%d vs %d points)", label, len(f), len(w))
				}
				col.Map.DiscardRun()
				ref.Map.DiscardRun()
			}
			sameMemory := func(what string) {
				a, _ := s.img.Mem.ReadBytes(s.img.Mem.Base(), s.img.Mem.Size())
				b, _ := r.img.Mem.ReadBytes(r.img.Mem.Base(), r.img.Mem.Size())
				if !slices.Equal(a, b) {
					t.Fatalf("%s: %s differs", label, what)
				}
			}
			sameMemory("the memory after the run")
			if s.img.Inject(bs) != nil || r.img.Inject(bs) != nil {
				t.Fatal("inject failed")
			}
			sameMemory("the memory the next run sees")
		}
		check("as input", s.RunHooked(bs, hook), r.RunHooked(bs, refHook))

		if s.start(bs, hook) != nil || r.start(bs, refHook) != nil {
			t.Fatal("start failed")
		}
		if s.Platform.Family == template.FamilyTrap {
			counter := binary.LittleEndian.Uint32(data[12:])
			addr := s.Platform.Layout.TrapSigAddr
			if s.img.Mem.Write32(addr, counter) != nil || r.img.Mem.Write32(addr, counter) != nil {
				t.Fatal("counter write failed")
			}
		}
		h := randomHart(s.cpu, s.handler.base, binary.LittleEndian.Uint64(data[4:]))
		n := h.Minstret % (s.Limit + 1)
		s.cpu, s.ex.InstCount = h, n
		r.cpu, r.ex.InstCount = h, n
		check("from a random hart", s.finish(hook), r.finish(refHook))
	})
}

// dispatches returns, per path, how many steps eval dispatches on it,
// its end included.
func (x *handlerSummary) dispatches() []int {
	n := make([]int, len(x.paths))
	var walk func(i, k int)
	walk = func(i, k int) {
		for ; ; i++ {
			k++
			st := &x.steps[i]
			switch {
			case st.op == isa.OpIllegal:
				n[st.to] = k
				return
			case st.op >= isa.OpBEQ && st.op <= isa.OpBGEU:
				walk(int(st.to), k)
			}
		}
	}
	walk(0, 0)
	return n
}

// pathsOrNil returns the summary's paths, or nil for no summary.
func (x *handlerSummary) pathsOrNil() []handlerPath {
	if x == nil {
		return nil
	}
	return x.paths
}
