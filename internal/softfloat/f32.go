package softfloat

// Binary32 operations. Values are raw IEEE-754 single-precision bit
// patterns; every operation returns the result bits and the exception
// flags it raised.

// Add32 returns a + b.
func Add32(a, b uint32, rm RM) (uint32, Flags) {
	v, fl := add(fmt32, uint64(a), uint64(b), rm, false)
	return uint32(v), fl
}

// Sub32 returns a - b.
func Sub32(a, b uint32, rm RM) (uint32, Flags) {
	v, fl := add(fmt32, uint64(a), uint64(b), rm, true)
	return uint32(v), fl
}

// Mul32 returns a * b.
func Mul32(a, b uint32, rm RM) (uint32, Flags) {
	v, fl := mul(fmt32, uint64(a), uint64(b), rm)
	return uint32(v), fl
}

// Div32 returns a / b.
func Div32(a, b uint32, rm RM) (uint32, Flags) {
	v, fl := div(fmt32, uint64(a), uint64(b), rm)
	return uint32(v), fl
}

// Sqrt32 returns the square root of a.
func Sqrt32(a uint32, rm RM) (uint32, Flags) {
	v, fl := sqrt(fmt32, uint64(a), rm)
	return uint32(v), fl
}

// FMA32 returns a*b + c with a single rounding.
func FMA32(a, b, c uint32, rm RM) (uint32, Flags) {
	v, fl := fma(fmt32, uint64(a), uint64(b), uint64(c), rm)
	return uint32(v), fl
}

// Min32 implements FMIN.S.
func Min32(a, b uint32) (uint32, Flags) {
	v, fl := minmax(fmt32, uint64(a), uint64(b), false)
	return uint32(v), fl
}

// Max32 implements FMAX.S.
func Max32(a, b uint32) (uint32, Flags) {
	v, fl := minmax(fmt32, uint64(a), uint64(b), true)
	return uint32(v), fl
}

// Eq32 implements FEQ.S (quiet comparison).
func Eq32(a, b uint32) (bool, Flags) {
	eq, _, _, fl := compare(fmt32, uint64(a), uint64(b), false)
	return eq, fl
}

// Lt32 implements FLT.S (signaling comparison).
func Lt32(a, b uint32) (bool, Flags) {
	_, lt, _, fl := compare(fmt32, uint64(a), uint64(b), true)
	return lt, fl
}

// Le32 implements FLE.S (signaling comparison).
func Le32(a, b uint32) (bool, Flags) {
	_, _, le, fl := compare(fmt32, uint64(a), uint64(b), true)
	return le, fl
}

// Class32 implements FCLASS.S.
func Class32(a uint32) uint32 { return classify(fmt32, uint64(a)) }

// F32ToI32 implements FCVT.W.S.
func F32ToI32(a uint32, rm RM) (uint32, Flags) { return toInt32(fmt32, uint64(a), rm, true) }

// F32ToU32 implements FCVT.WU.S.
func F32ToU32(a uint32, rm RM) (uint32, Flags) { return toInt32(fmt32, uint64(a), rm, false) }

// I32ToF32 implements FCVT.S.W.
func I32ToF32(v uint32, rm RM) (uint32, Flags) {
	r, fl := fromInt32(fmt32, v, rm, true)
	return uint32(r), fl
}

// U32ToF32 implements FCVT.S.WU.
func U32ToF32(v uint32, rm RM) (uint32, Flags) {
	r, fl := fromInt32(fmt32, v, rm, false)
	return uint32(r), fl
}

// F32ToF64 implements FCVT.D.S (exact except for NaN canonicalization).
func F32ToF64(a uint32) (uint64, Flags) {
	return cvtFormat(fmt32, fmt64, uint64(a), RNE)
}
