package fuzz

import "rvnegtest/internal/isa"

// TrapDirectedCases are hand-written trap-family probes appended to every
// generated trap suite after fuzzing. Each one drives a specific
// privileged-architecture mechanism through the recording handler so the
// corresponding seeded defect class produces a trap-record divergence even
// if the random campaign never stumbled into the exact sequence:
//
//   - mtval probe: an illegal word whose encoding must appear in mtval
//     (catches mtval-zeroing);
//   - vectored probe: sets mtvec bit 0 (vectored mode) and traps — the
//     handler's entry-path tag exposes simulators that vector synchronous
//     exceptions;
//   - MPIE probe: enables MIE, then traps twice — the second record's
//     saved mstatus shows whether MRET restored MIE from MPIE;
//   - mask probe: writes a garbage mstatus value and traps — the record
//     shows whether the WARL write mask was applied.
//
// Directed cases deliberately bypass the static filter (a generated case
// would be dropped for writing mtvec); core.BuildSuite appends them after
// fuzzing and minimization, never into the mutation corpus.
func TrapDirectedCases() [][]byte {
	words := func(ws ...uint32) []byte {
		bs := make([]byte, 0, 4*len(ws))
		for _, w := range ws {
			bs = append(bs, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
		}
		return bs
	}
	const bad = 0xffffffff // illegal 32-bit encoding, mtval-visible
	return [][]byte{
		// mtval probe.
		words(bad),
		// vectored probe: mtvec |= 1, then trap.
		words(
			isa.MustEncode(isa.Inst{Op: isa.OpCSRRS, Rd: 5, Rs1: 0, CSR: 0x305}),
			isa.MustEncode(isa.Inst{Op: isa.OpORI, Rd: 5, Rs1: 5, Imm: 1}),
			isa.MustEncode(isa.Inst{Op: isa.OpCSRRW, Rd: 0, Rs1: 5, CSR: 0x305}),
			bad,
		),
		// MPIE probe: set mstatus.MIE, trap, trap again after the MRET.
		words(
			isa.MustEncode(isa.Inst{Op: isa.OpCSRRSI, Rd: 0, Imm: 8, CSR: 0x300}),
			bad,
			bad,
		),
		// mask probe: x16 is initialized to 0xdeadbeef by the template.
		words(
			isa.MustEncode(isa.Inst{Op: isa.OpCSRRW, Rd: 0, Rs1: 16, CSR: 0x300}),
			bad,
		),
	}
}
