package softfloat

// Binary64 operations; the double-precision counterparts of the functions
// in f32.go.

// Add64 returns a + b.
func Add64(a, b uint64, rm RM) (uint64, Flags) { return add(fmt64, a, b, rm, false) }

// Sub64 returns a - b.
func Sub64(a, b uint64, rm RM) (uint64, Flags) { return add(fmt64, a, b, rm, true) }

// Mul64 returns a * b.
func Mul64(a, b uint64, rm RM) (uint64, Flags) { return mul(fmt64, a, b, rm) }

// Div64 returns a / b.
func Div64(a, b uint64, rm RM) (uint64, Flags) { return div(fmt64, a, b, rm) }

// Sqrt64 returns the square root of a.
func Sqrt64(a uint64, rm RM) (uint64, Flags) { return sqrt(fmt64, a, rm) }

// FMA64 returns a*b + c with a single rounding.
func FMA64(a, b, c uint64, rm RM) (uint64, Flags) { return fma(fmt64, a, b, c, rm) }

// Min64 implements FMIN.D.
func Min64(a, b uint64) (uint64, Flags) { return minmax(fmt64, a, b, false) }

// Max64 implements FMAX.D.
func Max64(a, b uint64) (uint64, Flags) { return minmax(fmt64, a, b, true) }

// Eq64 implements FEQ.D (quiet comparison).
func Eq64(a, b uint64) (bool, Flags) {
	eq, _, _, fl := compare(fmt64, a, b, false)
	return eq, fl
}

// Lt64 implements FLT.D (signaling comparison).
func Lt64(a, b uint64) (bool, Flags) {
	_, lt, _, fl := compare(fmt64, a, b, true)
	return lt, fl
}

// Le64 implements FLE.D (signaling comparison).
func Le64(a, b uint64) (bool, Flags) {
	_, _, le, fl := compare(fmt64, a, b, true)
	return le, fl
}

// Class64 implements FCLASS.D.
func Class64(a uint64) uint32 { return classify(fmt64, a) }

// F64ToI32 implements FCVT.W.D.
func F64ToI32(a uint64, rm RM) (uint32, Flags) { return toInt32(fmt64, a, rm, true) }

// F64ToU32 implements FCVT.WU.D.
func F64ToU32(a uint64, rm RM) (uint32, Flags) { return toInt32(fmt64, a, rm, false) }

// I32ToF64 implements FCVT.D.W (always exact).
func I32ToF64(v uint32, rm RM) (uint64, Flags) { return fromInt32(fmt64, v, rm, true) }

// U32ToF64 implements FCVT.D.WU (always exact).
func U32ToF64(v uint32, rm RM) (uint64, Flags) { return fromInt32(fmt64, v, rm, false) }

// F64ToF32 implements FCVT.S.D (narrowing with rounding).
func F64ToF32(a uint64, rm RM) (uint32, Flags) {
	v, fl := cvtFormat(fmt64, fmt32, a, rm)
	return uint32(v), fl
}

// NaN boxing helpers for RV32D register files: a binary32 value held in a
// 64-bit FP register must be boxed with all-ones upper bits; any register
// value that is not properly boxed must be treated as the canonical NaN
// when read as binary32.

// Box32 NaN-boxes a binary32 value into a 64-bit register image.
func Box32(v uint32) uint64 { return 0xffffffff00000000 | uint64(v) }

// Unbox32 extracts a binary32 value from a 64-bit register image,
// substituting the canonical NaN for improperly boxed values.
func Unbox32(v uint64) uint32 {
	if v>>32 != 0xffffffff {
		return QNaN32
	}
	return uint32(v)
}
