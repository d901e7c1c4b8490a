package sim

import (
	"slices"

	"rvnegtest/internal/exec"
	"rvnegtest/internal/hart"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/mem"
)

// handlerSummary is the template's trap handler from its base (the
// entry state's mtvec &^ 3) up to, but not including, the first mret or
// dump:, compiled from the handler's code as the variant's decoder
// decodes it: a tree of steps with one leaf per path. Like exitSummary it
// is derived once per New.
type handlerSummary struct {
	base   uint32
	lo, hi uint32 // the code the paths fetch: [lo, hi)
	halt   uint32 // the executor's halt address
	steps  []hstep
	paths  []handlerPath
}

// hstep is one compiled handler instruction. Its successor is the next
// step, except for a taken branch, whose successor is step to. A step
// with op OpIllegal is a path's end, and to is the path's index. An
// instruction whose result the compiler knows (LUI, AUIPC, arithmetic on
// known values) and JAL x0 compile to no step; a known register is
// written by an LUI step only before a step or the path's end reads it.
// A CSR instruction is CSRRW, CSRRS or CSRRC with the value rs1's plus imm. A
// step with store set also does the SW that stores its result next, at
// x[sbase]+simm. A load or store whose base (rs1, sbase) is x0 has an
// address the compiler knows and checked; any other checks it at run time.
type hstep struct {
	op                  isa.Op
	rd, rs1, rs2, sbase isa.Reg
	flags               stepFlags
	csr                 uint16 // CSR: the CSR
	to                  uint16
	imm, simm           uint32
}

type stepFlags uint8

const (
	csrRead  stepFlags = 1 << iota // CSR: the step reads the CSR
	csrWrite                       // CSR: the step writes the CSR
	store                          // the step stores its result
)

// handlerPath is one path through the handler; its address is the key a
// skipper memoizes the path's coverage by.
type handlerPath struct {
	n      uint64 // instructions
	end    uint32 // the PC after the path: an mret or dump:
	trace  []uint32
	proven bool
}

// The compiler's bounds: no handler near them is a template's.
const (
	maxHandlerSteps = 256
	maxHandlerPaths = 8
	maxHandlerPath  = 128
)

// handlerRun is the state of one summarized trap: the hart at the base,
// the path taken, and the words it stores (in a buffer the path's later
// loads read through), applied only once every guard holds.
type handlerRun struct {
	x      [64]uint32 // the x registers (x0 reads 0) and xSink
	from   hart.Hart
	path   *handlerPath
	stores [16]wordStore
	nst    int
}

type wordStore struct{ addr, val uint32 }

// xSink is the register a step that writes x0 writes: evaluation keeps
// the x registers in handlerRun.x, where x0 must stay 0.
const xSink = isa.NumRegs

// handlerCompiler compiles the handler from the pristine image.
type handlerCompiler struct {
	m     *mem.Memory
	dec   *isa.Decoder
	cfg   isa.Config
	align uint32 // a jump target's alignment mask
	dump  uint32
	x     *handlerSummary
}

// known is what the compiler knows of the x registers at a point of a
// path: which hold a constant (x0 always), and which of those the hart
// does not hold yet.
type known struct {
	set, stale uint32
	val        [isa.NumRegs]uint32
}

// write notes that rd holds v (known) or a run-time value, which the
// hart then holds.
func (kn *known) write(rd isa.Reg, v uint32, isKnown bool) {
	if rd == 0 {
		return
	}
	bit := uint32(1) << rd
	kn.set, kn.stale = kn.set&^bit, kn.stale&^bit
	if isKnown {
		kn.set, kn.stale, kn.val[rd] = kn.set|bit, kn.stale|bit, v
	}
}

// compileHandler compiles the handler at base into a summary, or returns
// nil when one of its paths is not straight-line integer code: it may
// hold integer ALU operations, LUI and AUIPC, word loads and stores, CSR
// instructions other than the counters, JAL x0 and conditional branches,
// must end at an mret or dump: within maxHandlerPath instructions, and
// must not loop. It also returns nil when an address it knows fails
// dataAddr, which would fail every run.
func compileHandler(m *mem.Memory, dec *isa.Decoder, cfg isa.Config, base, dump, halt uint32) *handlerSummary {
	x := &handlerSummary{base: base, lo: ^uint32(0), halt: halt}
	c := &handlerCompiler{m: m, dec: dec, cfg: cfg, align: 3, dump: dump, x: x}
	if cfg.Has(isa.ExtC) {
		c.align = 1
	}
	if !c.path(base, nil, known{set: 1}) {
		return nil
	}
	// Checked only now: lo and hi grow until every path is compiled.
	for _, st := range x.steps {
		if (st.op == isa.OpLW || st.op == isa.OpSW) && st.rs1 == 0 && !x.dataAddr(st.imm, m) ||
			st.flags&store != 0 && st.sbase == 0 && !x.dataAddr(st.simm, m) {
			return nil
		}
	}
	return x
}

// path compiles the code from pc on, reached after the instructions
// whose fetch address and edge trace lists with the registers kn, up to
// every path's end.
func (c *handlerCompiler) path(pc uint32, trace []uint32, kn known) bool {
	x := c.x
	fuse := -1 // the last step, if it writes an rd a store may take from it
	for {
		k := len(trace) / 2
		in, legal := c.decode(pc)
		if pc == c.dump || legal && in.Op == isa.OpMRET {
			c.materialize(&kn, kn.stale)
			if k == 0 || len(x.paths) == maxHandlerPaths || c.emit(hstep{op: isa.OpIllegal, to: uint16(len(x.paths))}) < 0 {
				return false
			}
			x.paths = append(x.paths, handlerPath{n: uint64(k), end: pc, trace: trace})
			return true
		}
		if !legal || k == maxHandlerPath {
			return false
		}
		for i := 0; i < len(trace); i += 2 {
			if trace[i] == pc {
				return false // a loop
			}
		}
		x.lo, x.hi = min(x.lo, pc), max(x.hi, pc+uint32(in.Size))
		op, fl := in.Op, in.Info().Flags
		st := hstep{op: op, rd: in.Rd, rs1: in.Rs1, rs2: in.Rs2, imm: uint32(in.Imm)}
		var reads uint32 // the registers the step reads
		if fl.Is(isa.FlagReadsRS1) {
			reads |= 1 << in.Rs1
		}
		if fl.Is(isa.FlagReadsRS2) {
			reads |= 1 << in.Rs2
		}
		a, b := kn.val[in.Rs1], kn.val[in.Rs2]
		all := reads&^kn.set == 0 // every source is known
		next, edge := pc+uint32(in.Size), uint32(exec.EdgeRetire)
		if op == isa.OpAUIPC {
			op, st.op, st.imm = isa.OpLUI, isa.OpLUI, pc+uint32(in.Imm)
		}
		switch {
		case op == isa.OpLUI || op >= isa.OpADDI && op <= isa.OpAND:
			if all {
				kn.write(in.Rd, alu(op, a, b, st.imm), true)
				st.op = isa.OpJAL // no step
			}
		case op == isa.OpLW, op == isa.OpSW:
			if kn.set&(1<<in.Rs1) != 0 {
				st.rs1, st.imm, reads = 0, a+st.imm, reads&^(1<<in.Rs1)
			}
			if op == isa.OpLW {
				break
			}
			c.materialize(&kn, reads&kn.stale)
			if fuse >= 0 && fuse == len(x.steps)-1 && x.steps[fuse].rd == in.Rs2 && kn.set&(1<<in.Rs2) == 0 {
				f := &x.steps[fuse]
				f.flags, f.sbase, f.simm = f.flags|store, st.rs1, st.imm
				fuse = -1
				trace = append(trace, pc, uint32(in.Op)*8+edge)
				pc = next
				continue
			}
			st.rd = 0
		case op >= isa.OpCSRRW && op <= isa.OpCSRRCI:
			if !c.csr(&st, in) {
				return false
			}
		case op == isa.OpJAL && in.Rd == 0:
			next, edge = pc+uint32(in.Imm), exec.EdgeBranchTaken
			if next&c.align != 0 {
				return false
			}
		case op >= isa.OpBEQ && op <= isa.OpBGEU:
			taken := pc + uint32(in.Imm)
			if taken&c.align != 0 {
				return false
			}
			st.rd = 0
			c.materialize(&kn, reads&kn.stale)
			i := c.emit(st)
			if i < 0 || !c.path(next, append(slices.Clip(trace), pc, uint32(op)*8+exec.EdgeBranchNot), kn) {
				return false
			}
			x.steps[i].to = uint16(len(x.steps))
			return c.path(taken, append(slices.Clip(trace), pc, uint32(op)*8+exec.EdgeBranchTaken), kn)
		default:
			return false
		}
		if st.op != isa.OpJAL {
			fuse = -1
			c.materialize(&kn, reads&kn.stale)
			i := c.emit(st)
			if i < 0 {
				return false
			}
			if fl.Is(isa.FlagWritesRD) && in.Rd != 0 {
				kn.write(in.Rd, 0, false)
				fuse = i
			}
		}
		trace = append(trace, pc, uint32(in.Op)*8+edge)
		pc = next
	}
}

// materialize appends an LUI step for each known register in regs the
// hart does not hold yet.
func (c *handlerCompiler) materialize(kn *known, regs uint32) {
	for r := range isa.Reg(isa.NumRegs) {
		if regs&(1<<r) != 0 {
			c.emit(hstep{op: isa.OpLUI, rd: r, imm: kn.val[r]})
		}
	}
	kn.stale &^= regs
}

// emit appends st and returns its index, or -1 past maxHandlerSteps.
// A write to x0 goes to the sink.
func (c *handlerCompiler) emit(st hstep) int {
	x := c.x
	if st.rd == 0 {
		st.rd = xSink
	}
	x.steps = append(x.steps, st)
	if len(x.steps) > maxHandlerSteps {
		return -1
	}
	return len(x.steps) - 1
}

// csr compiles a CSR instruction the way the executor runs it: a CSRRW
// with rd x0 does not read the CSR, a CSRRS or CSRRC whose source is x0
// or 0 does not write it. It refuses mcycle, minstret and their high
// halves: a path advances them only at its end.
func (c *handlerCompiler) csr(st *hstep, in isa.Inst) bool {
	switch in.CSR {
	case hart.CSRMcycle, hart.CSRMinstret, hart.CSRMcycleH, hart.CSRMinstretH:
		return false
	}
	imm := in.Op >= isa.OpCSRRWI
	st.csr = in.CSR
	if imm {
		st.op -= isa.OpCSRRWI - isa.OpCSRRW
		st.rs1 = 0
	} else {
		st.imm = 0
	}
	if st.op == isa.OpCSRRW || (imm && in.Imm != 0) || (!imm && in.Rs1 != 0) {
		st.flags |= csrWrite
	}
	if st.op != isa.OpCSRRW || in.Rd != 0 {
		st.flags |= csrRead
	}
	return true
}

// decode fetches and decodes the instruction at pc as Executor.Step
// does and reports whether it is legal on the hart. A decoder panic is
// an illegal instruction here: the handler executes and panics there.
func (c *handlerCompiler) decode(pc uint32) (in isa.Inst, legal bool) {
	defer func() {
		if recover() != nil {
			legal = false
		}
	}()
	key, ok := c.m.Fetch(pc)
	if !ok {
		return in, false
	}
	if key&3 != 3 {
		if !c.cfg.Has(isa.ExtC) {
			return in, false
		}
		key &= 0xffff
	}
	in = c.dec.Decode(key)
	info := in.Info()
	return in, info != nil && c.cfg.Has(info.Ext) && !info.Flags.Is(isa.FlagFP)
}

// alu computes an integer ALU operation (LUI: the immediate) by
// evaluating it as a one-step summary.
func alu(op isa.Op, a, b, imm uint32) uint32 {
	x := &handlerSummary{steps: []hstep{{op: op, rd: 1, rs1: 1, rs2: 2, imm: imm}, {op: isa.OpIllegal}},
		paths: []handlerPath{{}}}
	var h hart.Hart
	h.X[1], h.X[2] = a, b
	x.eval(&h, &handlerRun{}, nil)
	return h.X[1]
}

// takeIf returns the step after branch step st: its taken successor
// when taken, else next.
func takeIf(taken bool, st *hstep, next int) int {
	if taken {
		return int(st.to)
	}
	return next
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// eval applies the summary to h, which is at the base, and to hr's
// store buffer over m, and returns the path it took, or nil when an
// address the path computes fails dataAddr, the store buffer is full, or
// a CSR access would trap. It reads and writes what the handler does, in
// program order: CSR accesses go through the hart, loads read the store
// buffer and then memory, and InstCount aside the hart ends as the
// executed path leaves it, mcycle and minstret included (no step reads
// them). On nil, h is left part way.
func (x *handlerSummary) eval(h *hart.Hart, hr *handlerRun, m *mem.Memory) *handlerPath {
	hr.nst = 0
	r := &hr.x
	copy(r[:], h.X[:])
	r[0] = 0
	for i := 0; ; {
		st := &x.steps[i]
		i++
		a, b := r[st.rs1&31], r[st.rs2&31]
		var v uint32
		switch st.op {
		case isa.OpIllegal:
			p := &x.paths[st.to]
			h.Mcycle += p.n
			h.Minstret += p.n
			h.PC, hr.path = p.end, p
			copy(h.X[1:], r[1:isa.NumRegs])
			return p
		case isa.OpLUI:
			v = st.imm
		case isa.OpADDI:
			v = a + st.imm
		case isa.OpSLTI:
			v = b2u(int32(a) < int32(st.imm))
		case isa.OpSLTIU:
			v = b2u(a < st.imm)
		case isa.OpXORI:
			v = a ^ st.imm
		case isa.OpORI:
			v = a | st.imm
		case isa.OpANDI:
			v = a & st.imm
		case isa.OpSLLI:
			v = a << st.imm
		case isa.OpSRLI:
			v = a >> st.imm
		case isa.OpSRAI:
			v = uint32(int32(a) >> st.imm)
		case isa.OpADD:
			v = a + b
		case isa.OpSUB:
			v = a - b
		case isa.OpSLL:
			v = a << (b & 31)
		case isa.OpSLT:
			v = b2u(int32(a) < int32(b))
		case isa.OpSLTU:
			v = b2u(a < b)
		case isa.OpXOR:
			v = a ^ b
		case isa.OpSRL:
			v = a >> (b & 31)
		case isa.OpSRA:
			v = uint32(int32(a) >> (b & 31))
		case isa.OpOR:
			v = a | b
		case isa.OpAND:
			v = a & b
		case isa.OpLW:
			addr := a + st.imm
			if st.rs1 != 0 && !x.dataAddr(addr, m) {
				return nil
			}
			v = hr.load(addr, m)
		case isa.OpSW:
			addr := a + st.imm
			if st.rs1 != 0 && !x.dataAddr(addr, m) || !hr.store(addr, b) {
				return nil
			}
		case isa.OpCSRRW, isa.OpCSRRS, isa.OpCSRRC:
			var err error
			if st.flags&csrRead != 0 {
				if v, err = h.ReadCSR(st.csr); err != nil {
					return nil
				}
			}
			if st.flags&csrWrite != 0 {
				w := a + st.imm
				switch st.op {
				case isa.OpCSRRS:
					w |= v
				case isa.OpCSRRC:
					w = v &^ w
				}
				if h.WriteCSR(st.csr, w) != nil {
					return nil
				}
			}
		case isa.OpBEQ:
			i = takeIf(a == b, st, i)
		case isa.OpBNE:
			i = takeIf(a != b, st, i)
		case isa.OpBLT:
			i = takeIf(int32(a) < int32(b), st, i)
		case isa.OpBGE:
			i = takeIf(int32(a) >= int32(b), st, i)
		case isa.OpBLTU:
			i = takeIf(a < b, st, i)
		case isa.OpBGEU:
			i = takeIf(a >= b, st, i)
		}
		r[st.rd&63] = v
		if st.flags&store != 0 {
			addr := r[st.sbase&31] + st.simm
			if st.sbase != 0 && !x.dataAddr(addr, m) || !hr.store(addr, v) {
				return nil
			}
		}
	}
}

// dataAddr reports whether a path may access the word at a: in range,
// aligned, not the halt address and not in the handler's code.
func (x *handlerSummary) dataAddr(a uint32, m *mem.Memory) bool {
	return a&3 == 0 && m.Contains(a, 4) && a != x.halt && (a+4 <= x.lo || a >= x.hi)
}

// load reads the word at a through the store buffer, where the latest
// store to a wins.
func (hr *handlerRun) load(a uint32, m *mem.Memory) uint32 {
	for i := hr.nst - 1; i >= 0; i-- {
		if hr.stores[i].addr == a {
			return hr.stores[i].val
		}
	}
	v, _ := m.Load(a, 4) // dataAddr checked
	return uint32(v)
}

// store buffers a word store and reports whether the buffer had room.
// Stores reach memory in program order.
func (hr *handlerRun) store(a, v uint32) bool {
	if hr.nst == len(hr.stores) {
		return false
	}
	hr.stores[hr.nst] = wordStore{a, v}
	hr.nst++
	return true
}

// takeTrap accounts for the handler path that starts at the run's next
// fetch, the base, instead of executing it, when every guard holds: the
// hook is nil or a skipper, the handler's code is pristine, the path's
// addresses pass dataAddr and its CSR accesses do not trap, New proved
// the path, the run has room for all of it under Limit, and a skipper
// accepts it (one that declined once is not asked again: see skipper).
// Every guard is decided before the hart or the memory changes; then
// the path's stores reach memory and InstCount advances by its length.
// The mret (or dump:) after the path executes as before.
func (s *Simulator) takeTrap(hook exec.Hook) bool {
	x, e, hr := s.handler, &s.ex, &s.hr
	var sk skipper
	if hook != nil {
		var ok bool
		if sk, ok = hook.(skipper); !ok || hook == s.declined {
			return false
		}
	}
	if !s.img.Mem.Pristine(x.lo, x.hi-x.lo) {
		return false
	}
	hr.from = s.cpu
	p := x.eval(&s.cpu, hr, s.img.Mem)
	ok := p != nil && p.proven && e.InstCount+p.n <= s.Limit
	if ok && sk != nil && !sk.SkipTrap(p, s.trapReplay) {
		s.declined, ok = hook, false
	}
	if !ok {
		s.cpu = hr.from
		return false
	}
	for _, st := range hr.stores[:hr.nst] {
		s.img.Mem.Store(st.addr, 4, uint64(st.val)) // dataAddr checked
	}
	e.InstCount += p.n
	s.handled++
	return true
}

// replayTrap executes the path eval just took from the hart it
// started at with hook attached, then puts the hart, the executor and
// the memory back: the run goes on as if the path had not executed.
func (s *Simulator) replayTrap(hook exec.Hook) {
	e, hr, m := &s.ex, &s.hr, s.img.Mem
	cpu, n, traps, hk := s.cpu, e.InstCount, e.TrapCount, e.Hook
	var old [len(hr.stores)]uint64
	for i, st := range hr.stores[:hr.nst] {
		old[i], _ = m.Load(st.addr, 4)
	}
	s.cpu, e.Hook = hr.from, hook
	for range hr.path.n {
		e.Step()
	}
	for i, st := range hr.stores[:hr.nst] {
		m.Store(st.addr, 4, old[i])
	}
	s.cpu, e.InstCount, e.TrapCount, e.Hook = cpu, n, traps, hk
}

// summarizeHandler compiles the handler at the entry state's trap base
// and proves each path by executing the handler on the simulator's own
// image from random trap states: random x and f registers and CSRs, and
// the words at the known addresses the handler loads from set in turn
// to each of 0, 0xffffffff, a random word and the neighbours of the
// handler's SLTI/SLTIU bounds, so that every path runs. A run proves its
// path when the executed handler leaves the whole hart, the memory,
// InstCount and TrapCount as the summary does, with the same fetches and
// edges. A path no run proved executes; any disagreement, or no proven
// path, leaves no summary. The image is restored afterwards.
func (s *Simulator) summarizeHandler() *handlerSummary {
	if s.entry == nil {
		return nil
	}
	m := s.img.Mem
	base := s.entry.cpu.Mtvec &^ 3
	x := compileHandler(m, s.ex.Dec, s.eff, base, s.img.ExitAddr, s.ex.HaltAddr)
	if x == nil {
		return nil
	}
	defer m.Restore()
	rnd := splitmix(uint64(base))
	words := []uint32{0, 0xffffffff, uint32(rnd())}
	var inputs []wordStore // each known load address with its pristine word
	for _, st := range x.steps {
		switch {
		case st.op == isa.OpSLTI || st.op == isa.OpSLTIU:
			words = append(words, st.imm-2, st.imm-1, st.imm, st.imm+1)
		case st.op == isa.OpLW && st.rs1 == 0 && !slices.ContainsFunc(inputs, func(in wordStore) bool { return in.addr == st.imm }):
			v, _ := m.Load(st.imm, 4) // compileHandler checked
			inputs = append(inputs, wordStore{st.imm, uint32(v)})
		}
	}
	slices.Sort(words)
	words = slices.Compact(words)
	hr := &s.hr
	for r := range words {
		m.Restore()
		h := s.entry.cpu
		for i := range h.F {
			h.F[i] = rnd()
		}
		for i := 1; i < isa.NumRegs; i++ {
			h.X[i] = uint32(rnd())
		}
		h.PC, h.Mstatus, h.Mscratch, h.Mepc = base, uint32(rnd()), uint32(rnd()), uint32(rnd())&^1
		h.Mcause, h.Mtval, h.Mie, h.Mcycle, h.Minstret = uint32(rnd()), uint32(rnd()), uint32(rnd())&0x888, rnd(), rnd()
		h.Fflags, h.Frm, h.ResValid, h.ResAddr = uint8(rnd()&0x1f), uint8(rnd()&7), rnd()&1 == 0, uint32(rnd())&^3
		for j, in := range inputs {
			m.Store(in.addr, 4, uint64(words[(r+j)%len(words)]))
		}
		s.cpu = h
		p := x.eval(&s.cpu, hr, m)
		if p == nil {
			continue
		}
		if !s.proveHandlerRun(h, p, inputs) {
			return nil
		}
		p.proven = true
	}
	kept := false
	for i := range x.paths {
		kept = kept || x.paths[i].proven
		x.paths[i].trace = nil
	}
	if !kept {
		return nil
	}
	return x
}

// proveHandlerRun executes p.n instructions from h on the simulator's
// image, which eval has just summarized from h, and reports
// whether they leave the hart as the summary did, change the memory
// exactly by the summary's stores, neither trap nor halt, and fetch and
// take the edges of p. It then puts the words the path stored and the
// inputs (each with its pristine value) back, and the whole image must
// be pristine.
func (s *Simulator) proveHandlerRun(h hart.Hart, p *handlerPath, inputs []wordStore) bool {
	m, e, hr := s.img.Mem, &s.ex, &s.hr
	want, stores := s.cpu, slices.Clone(hr.stores[:hr.nst])
	old := make([]uint64, len(stores))
	for i, st := range stores {
		old[i], _ = m.Load(st.addr, 4)
	}
	t := &handlerTrace{}
	s.cpu = h
	atEnd := func() bool { return e.InstCount == p.n }
	if !s.trial(t, atEnd) || e.Halted || s.cpu != want || !slices.Equal(t.trace, p.trace) {
		return false
	}
	for i, st := range stores {
		last := !slices.ContainsFunc(stores[i+1:], func(later wordStore) bool { return later.addr == st.addr })
		if v, _ := m.Load(st.addr, 4); last && uint32(v) != st.val {
			return false
		}
	}
	for i, st := range stores {
		m.Store(st.addr, 4, old[i])
	}
	for _, in := range inputs {
		m.Store(in.addr, 4, uint64(in.val))
	}
	return m.Pristine(m.Base(), m.Size())
}

// handlerTrace is the hook a proof run executes the handler under: it
// lists each fetch address and each edge.
type handlerTrace struct{ trace []uint32 }

func (t *handlerTrace) OnInst(_ *isa.Inst, h *hart.Hart) { t.trace = append(t.trace, h.PC) }
func (t *handlerTrace) OnEdge(edge uint32)               { t.trace = append(t.trace, edge) }
