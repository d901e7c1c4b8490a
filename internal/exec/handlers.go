package exec

import (
	"rvnegtest/internal/hart"
	"rvnegtest/internal/isa"
)

// handlerFn executes one decoded instruction. Handlers assume Step
// already established legality for the hart (extension present, FP
// enabled).
type handlerFn func(e *Executor, in *isa.Inst)

// handlers is the operation-indexed dispatch table: Step dispatches with
// a single indexed call instead of a switch over every operation.
var handlers []handlerFn

func hIllegal(e *Executor, in *isa.Inst) {
	e.trap(in.Op, hart.CauseIllegalInstruction, in.Raw)
}

// hFP routes the F/D arithmetic operations (everything without a
// dedicated handler) to the soft-float executor.
func hFP(e *Executor, in *isa.Inst) {
	e.executeFP(in, e.CPU.ReadX(in.Rs1))
}

func init() {
	handlers = make([]handlerFn, isa.NumOps())
	for i := range handlers {
		handlers[i] = hFP
	}
	set := func(op isa.Op, fn handlerFn) { handlers[op] = fn }
	set(isa.OpIllegal, hIllegal)

	// ----- RV32I computational -----
	set(isa.OpLUI, func(e *Executor, in *isa.Inst) {
		e.CPU.WriteX(in.Rd, uint32(in.Imm))
		e.retire(in)
	})
	set(isa.OpAUIPC, func(e *Executor, in *isa.Inst) {
		e.CPU.WriteX(in.Rd, e.CPU.PC+uint32(in.Imm))
		e.retire(in)
	})
	set(isa.OpADDI, func(e *Executor, in *isa.Inst) {
		e.CPU.WriteX(in.Rd, e.CPU.ReadX(in.Rs1)+uint32(in.Imm))
		e.retire(in)
	})
	set(isa.OpSLTI, func(e *Executor, in *isa.Inst) {
		e.CPU.WriteX(in.Rd, b2u(int32(e.CPU.ReadX(in.Rs1)) < in.Imm))
		e.retire(in)
	})
	set(isa.OpSLTIU, func(e *Executor, in *isa.Inst) {
		e.CPU.WriteX(in.Rd, b2u(e.CPU.ReadX(in.Rs1) < uint32(in.Imm)))
		e.retire(in)
	})
	set(isa.OpXORI, func(e *Executor, in *isa.Inst) {
		e.CPU.WriteX(in.Rd, e.CPU.ReadX(in.Rs1)^uint32(in.Imm))
		e.retire(in)
	})
	set(isa.OpORI, func(e *Executor, in *isa.Inst) {
		e.CPU.WriteX(in.Rd, e.CPU.ReadX(in.Rs1)|uint32(in.Imm))
		e.retire(in)
	})
	set(isa.OpANDI, func(e *Executor, in *isa.Inst) {
		e.CPU.WriteX(in.Rd, e.CPU.ReadX(in.Rs1)&uint32(in.Imm))
		e.retire(in)
	})
	set(isa.OpSLLI, func(e *Executor, in *isa.Inst) {
		e.CPU.WriteX(in.Rd, e.CPU.ReadX(in.Rs1)<<uint32(in.Imm))
		e.retire(in)
	})
	set(isa.OpSRLI, func(e *Executor, in *isa.Inst) {
		e.CPU.WriteX(in.Rd, e.CPU.ReadX(in.Rs1)>>uint32(in.Imm))
		e.retire(in)
	})
	set(isa.OpSRAI, func(e *Executor, in *isa.Inst) {
		e.CPU.WriteX(in.Rd, uint32(int32(e.CPU.ReadX(in.Rs1))>>uint32(in.Imm)))
		e.retire(in)
	})
	set(isa.OpADD, func(e *Executor, in *isa.Inst) {
		e.CPU.WriteX(in.Rd, e.CPU.ReadX(in.Rs1)+e.CPU.ReadX(in.Rs2))
		e.retire(in)
	})
	set(isa.OpSUB, func(e *Executor, in *isa.Inst) {
		e.CPU.WriteX(in.Rd, e.CPU.ReadX(in.Rs1)-e.CPU.ReadX(in.Rs2))
		e.retire(in)
	})
	set(isa.OpSLL, func(e *Executor, in *isa.Inst) {
		e.CPU.WriteX(in.Rd, e.CPU.ReadX(in.Rs1)<<(e.CPU.ReadX(in.Rs2)&31))
		e.retire(in)
	})
	set(isa.OpSLT, func(e *Executor, in *isa.Inst) {
		e.CPU.WriteX(in.Rd, b2u(int32(e.CPU.ReadX(in.Rs1)) < int32(e.CPU.ReadX(in.Rs2))))
		e.retire(in)
	})
	set(isa.OpSLTU, func(e *Executor, in *isa.Inst) {
		e.CPU.WriteX(in.Rd, b2u(e.CPU.ReadX(in.Rs1) < e.CPU.ReadX(in.Rs2)))
		e.retire(in)
	})
	set(isa.OpXOR, func(e *Executor, in *isa.Inst) {
		e.CPU.WriteX(in.Rd, e.CPU.ReadX(in.Rs1)^e.CPU.ReadX(in.Rs2))
		e.retire(in)
	})
	set(isa.OpSRL, func(e *Executor, in *isa.Inst) {
		e.CPU.WriteX(in.Rd, e.CPU.ReadX(in.Rs1)>>(e.CPU.ReadX(in.Rs2)&31))
		e.retire(in)
	})
	set(isa.OpSRA, func(e *Executor, in *isa.Inst) {
		e.CPU.WriteX(in.Rd, uint32(int32(e.CPU.ReadX(in.Rs1))>>(e.CPU.ReadX(in.Rs2)&31)))
		e.retire(in)
	})
	set(isa.OpOR, func(e *Executor, in *isa.Inst) {
		e.CPU.WriteX(in.Rd, e.CPU.ReadX(in.Rs1)|e.CPU.ReadX(in.Rs2))
		e.retire(in)
	})
	set(isa.OpAND, func(e *Executor, in *isa.Inst) {
		e.CPU.WriteX(in.Rd, e.CPU.ReadX(in.Rs1)&e.CPU.ReadX(in.Rs2))
		e.retire(in)
	})

	// ----- Control transfer -----
	set(isa.OpJAL, func(e *Executor, in *isa.Inst) {
		h := e.CPU
		e.jump(in, h.PC+uint32(in.Imm), h.PC+uint32(in.Size))
	})
	set(isa.OpJALR, func(e *Executor, in *isa.Inst) {
		h := e.CPU
		target := (h.ReadX(in.Rs1) + uint32(in.Imm)) &^ 1
		e.jump(in, target, h.PC+uint32(in.Size))
	})
	set(isa.OpBEQ, func(e *Executor, in *isa.Inst) {
		e.branch(in, e.CPU.ReadX(in.Rs1) == e.CPU.ReadX(in.Rs2))
	})
	set(isa.OpBNE, func(e *Executor, in *isa.Inst) {
		e.branch(in, e.CPU.ReadX(in.Rs1) != e.CPU.ReadX(in.Rs2))
	})
	set(isa.OpBLT, func(e *Executor, in *isa.Inst) {
		e.branch(in, int32(e.CPU.ReadX(in.Rs1)) < int32(e.CPU.ReadX(in.Rs2)))
	})
	set(isa.OpBGE, func(e *Executor, in *isa.Inst) {
		e.branch(in, int32(e.CPU.ReadX(in.Rs1)) >= int32(e.CPU.ReadX(in.Rs2)))
	})
	set(isa.OpBLTU, func(e *Executor, in *isa.Inst) {
		e.branch(in, e.CPU.ReadX(in.Rs1) < e.CPU.ReadX(in.Rs2))
	})
	set(isa.OpBGEU, func(e *Executor, in *isa.Inst) {
		e.branch(in, e.CPU.ReadX(in.Rs1) >= e.CPU.ReadX(in.Rs2))
	})

	// ----- Loads / stores -----
	set(isa.OpLB, func(e *Executor, in *isa.Inst) {
		if v, ok := e.load(in, e.CPU.ReadX(in.Rs1), 1); ok {
			e.CPU.WriteX(in.Rd, uint32(int32(int8(v))))
			e.retire(in)
		}
	})
	set(isa.OpLBU, func(e *Executor, in *isa.Inst) {
		if v, ok := e.load(in, e.CPU.ReadX(in.Rs1), 1); ok {
			e.CPU.WriteX(in.Rd, uint32(uint8(v)))
			e.retire(in)
		}
	})
	set(isa.OpLH, func(e *Executor, in *isa.Inst) {
		if v, ok := e.load(in, e.CPU.ReadX(in.Rs1), 2); ok {
			e.CPU.WriteX(in.Rd, uint32(int32(int16(v))))
			e.retire(in)
		}
	})
	set(isa.OpLHU, func(e *Executor, in *isa.Inst) {
		if v, ok := e.load(in, e.CPU.ReadX(in.Rs1), 2); ok {
			e.CPU.WriteX(in.Rd, uint32(uint16(v)))
			e.retire(in)
		}
	})
	set(isa.OpLW, func(e *Executor, in *isa.Inst) {
		if v, ok := e.load(in, e.CPU.ReadX(in.Rs1), 4); ok {
			e.CPU.WriteX(in.Rd, uint32(v))
			e.retire(in)
		}
	})
	set(isa.OpSB, func(e *Executor, in *isa.Inst) {
		if e.store(in, e.CPU.ReadX(in.Rs1), 1, uint64(e.CPU.ReadX(in.Rs2))) {
			e.retire(in)
		}
	})
	set(isa.OpSH, func(e *Executor, in *isa.Inst) {
		if e.store(in, e.CPU.ReadX(in.Rs1), 2, uint64(e.CPU.ReadX(in.Rs2))) {
			e.retire(in)
		}
	})
	set(isa.OpSW, func(e *Executor, in *isa.Inst) {
		if e.store(in, e.CPU.ReadX(in.Rs1), 4, uint64(e.CPU.ReadX(in.Rs2))) {
			e.retire(in)
		}
	})
	set(isa.OpFLW, func(e *Executor, in *isa.Inst) {
		if v, ok := e.load(in, e.CPU.ReadX(in.Rs1), 4); ok {
			e.CPU.WriteF32(in.Rd, uint32(v))
			e.retire(in)
		}
	})
	set(isa.OpFLD, func(e *Executor, in *isa.Inst) {
		if v, ok := e.load(in, e.CPU.ReadX(in.Rs1), 8); ok {
			e.CPU.WriteF64(in.Rd, v)
			e.retire(in)
		}
	})
	set(isa.OpFSW, func(e *Executor, in *isa.Inst) {
		if e.store(in, e.CPU.ReadX(in.Rs1), 4, uint64(e.CPU.ReadF32(in.Rs2))) {
			e.retire(in)
		}
	})
	set(isa.OpFSD, func(e *Executor, in *isa.Inst) {
		if e.store(in, e.CPU.ReadX(in.Rs1), 8, e.CPU.ReadF64(in.Rs2)) {
			e.retire(in)
		}
	})

	// ----- Fences and system -----
	hNOP := func(e *Executor, in *isa.Inst) { e.retire(in) }
	// Memory is sequentially consistent here. OpCustomNOP only exists
	// behind the riscvOVPsim quirk.
	set(isa.OpFENCE, hNOP)
	set(isa.OpFENCEI, hNOP)
	set(isa.OpSFENCEVMA, hNOP)
	set(isa.OpCustomNOP, hNOP)
	set(isa.OpWFI, func(e *Executor, in *isa.Inst) {
		if e.WFIHalts {
			// Stall: PC does not advance, so the run exhausts its
			// instruction limit (there are no interrupt sources).
			return
		}
		e.retire(in)
	})
	set(isa.OpECALL, func(e *Executor, in *isa.Inst) {
		if e.Quirks.EcallMarksCompletion {
			e.CPU.X[26]++
		}
		e.trap(in.Op, hart.CauseECallM, 0)
	})
	set(isa.OpEBREAK, func(e *Executor, in *isa.Inst) {
		if e.EbreakHalts {
			e.Halted = true
			return
		}
		e.trap(in.Op, hart.CauseBreakpoint, e.CPU.PC)
	})
	set(isa.OpMRET, func(e *Executor, in *isa.Inst) {
		e.CPU.MRet()
		e.retireJump(in.Op, true)
	})
	// No supervisor/user trap support in this machine-mode-only model.
	set(isa.OpSRET, hIllegal)
	set(isa.OpURET, hIllegal)

	// ----- Zicsr -----
	hCSR := func(e *Executor, in *isa.Inst) { e.csrOp(in, e.CPU.ReadX(in.Rs1)) }
	set(isa.OpCSRRW, hCSR)
	set(isa.OpCSRRS, hCSR)
	set(isa.OpCSRRC, hCSR)
	set(isa.OpCSRRWI, hCSR)
	set(isa.OpCSRRSI, hCSR)
	set(isa.OpCSRRCI, hCSR)

	// ----- M -----
	set(isa.OpMUL, func(e *Executor, in *isa.Inst) {
		e.CPU.WriteX(in.Rd, e.CPU.ReadX(in.Rs1)*e.CPU.ReadX(in.Rs2))
		e.retire(in)
	})
	set(isa.OpMULH, func(e *Executor, in *isa.Inst) {
		rs1, rs2 := e.CPU.ReadX(in.Rs1), e.CPU.ReadX(in.Rs2)
		e.CPU.WriteX(in.Rd, uint32(uint64(int64(int32(rs1))*int64(int32(rs2)))>>32))
		e.retire(in)
	})
	set(isa.OpMULHSU, func(e *Executor, in *isa.Inst) {
		rs1, rs2 := e.CPU.ReadX(in.Rs1), e.CPU.ReadX(in.Rs2)
		e.CPU.WriteX(in.Rd, uint32(uint64(int64(int32(rs1))*int64(rs2))>>32))
		e.retire(in)
	})
	set(isa.OpMULHU, func(e *Executor, in *isa.Inst) {
		rs1, rs2 := e.CPU.ReadX(in.Rs1), e.CPU.ReadX(in.Rs2)
		e.CPU.WriteX(in.Rd, uint32(uint64(rs1)*uint64(rs2)>>32))
		e.retire(in)
	})
	set(isa.OpDIV, func(e *Executor, in *isa.Inst) {
		rs1, rs2 := e.CPU.ReadX(in.Rs1), e.CPU.ReadX(in.Rs2)
		var v int32
		switch {
		case rs2 == 0:
			v = -1
		case int32(rs1) == -1<<31 && int32(rs2) == -1:
			v = -1 << 31
		default:
			v = int32(rs1) / int32(rs2)
		}
		e.CPU.WriteX(in.Rd, uint32(v))
		e.retire(in)
	})
	set(isa.OpDIVU, func(e *Executor, in *isa.Inst) {
		rs1, rs2 := e.CPU.ReadX(in.Rs1), e.CPU.ReadX(in.Rs2)
		if rs2 == 0 {
			e.CPU.WriteX(in.Rd, ^uint32(0))
		} else {
			e.CPU.WriteX(in.Rd, rs1/rs2)
		}
		e.retire(in)
	})
	set(isa.OpREM, func(e *Executor, in *isa.Inst) {
		rs1, rs2 := e.CPU.ReadX(in.Rs1), e.CPU.ReadX(in.Rs2)
		var v int32
		switch {
		case rs2 == 0:
			v = int32(rs1)
		case int32(rs1) == -1<<31 && int32(rs2) == -1:
			v = 0
		default:
			v = int32(rs1) % int32(rs2)
		}
		e.CPU.WriteX(in.Rd, uint32(v))
		e.retire(in)
	})
	set(isa.OpREMU, func(e *Executor, in *isa.Inst) {
		rs1, rs2 := e.CPU.ReadX(in.Rs1), e.CPU.ReadX(in.Rs2)
		if rs2 == 0 {
			e.CPU.WriteX(in.Rd, rs1)
		} else {
			e.CPU.WriteX(in.Rd, rs1%rs2)
		}
		e.retire(in)
	})

	// ----- A -----
	set(isa.OpLRW, func(e *Executor, in *isa.Inst) {
		h := e.CPU
		rs1 := h.ReadX(in.Rs1)
		if rs1&3 != 0 {
			e.trap(in.Op, hart.CauseMisalignedLoad, rs1)
			return
		}
		v, ok := e.Mem.Load(rs1, 4)
		if !ok {
			e.trap(in.Op, hart.CauseLoadAccessFault, rs1)
			return
		}
		h.ResValid, h.ResAddr = true, rs1
		h.WriteX(in.Rd, uint32(v))
		e.retire(in)
	})
	set(isa.OpSCW, func(e *Executor, in *isa.Inst) {
		h := e.CPU
		rs1, rs2 := h.ReadX(in.Rs1), h.ReadX(in.Rs2)
		if rs1&3 != 0 {
			e.trap(in.Op, hart.CauseMisalignedStore, rs1)
			return
		}
		ok := (h.ResValid && h.ResAddr == rs1) || e.Quirks.SCIgnoresReservation
		h.ResValid = false
		if ok {
			if e.storeWord(rs1, rs2) {
				return // halted
			}
			h.WriteX(in.Rd, 0)
		} else {
			h.WriteX(in.Rd, 1)
		}
		e.retire(in)
	})
	hAMO := func(e *Executor, in *isa.Inst) {
		e.amo(in, e.CPU.ReadX(in.Rs1), e.CPU.ReadX(in.Rs2))
	}
	set(isa.OpAMOSWAPW, hAMO)
	set(isa.OpAMOADDW, hAMO)
	set(isa.OpAMOXORW, hAMO)
	set(isa.OpAMOANDW, hAMO)
	set(isa.OpAMOORW, hAMO)
	set(isa.OpAMOMINW, hAMO)
	set(isa.OpAMOMAXW, hAMO)
	set(isa.OpAMOMINUW, hAMO)
	set(isa.OpAMOMAXUW, hAMO)
}
