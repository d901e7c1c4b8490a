package softfloat

import (
	"math"
	"math/rand"
	"testing"
)

// interesting bit patterns mixed into random operand streams.
var special64 = []uint64{
	0x0000000000000000, 0x8000000000000000, // +-0
	0x3ff0000000000000, 0xbff0000000000000, // +-1
	0x7ff0000000000000, 0xfff0000000000000, // +-inf
	0x7ff8000000000000, 0x7ff0000000000001, // qnan, snan
	0x0000000000000001, 0x8000000000000001, // smallest subnormals
	0x000fffffffffffff, // largest subnormal
	0x0010000000000000, // smallest normal
	0x7fefffffffffffff, // largest normal
	0x3ff0000000000001, // 1 + ulp
	0x4330000000000000, // 2^52
	0xc330000000000000,
}

var special32 = []uint32{
	0x00000000, 0x80000000, 0x3f800000, 0xbf800000,
	0x7f800000, 0xff800000, 0x7fc00000, 0x7f800001,
	0x00000001, 0x80000001, 0x007fffff, 0x00800000,
	0x7f7fffff, 0x3f800001, 0x4b000000,
}

func randF64(rng *rand.Rand) uint64 {
	switch rng.Intn(4) {
	case 0:
		return special64[rng.Intn(len(special64))]
	case 1:
		// Exponent near bias so magnitudes are comparable (exercises
		// cancellation and alignment paths).
		exp := uint64(1023 + rng.Intn(64) - 32)
		return rng.Uint64()&0x800fffffffffffff | exp<<52
	default:
		return rng.Uint64()
	}
}

func randF32(rng *rand.Rand) uint32 {
	switch rng.Intn(4) {
	case 0:
		return special32[rng.Intn(len(special32))]
	case 1:
		exp := uint32(127 + rng.Intn(32) - 16)
		return uint32(rng.Uint32())&0x807fffff | exp<<23
	default:
		return rng.Uint32()
	}
}

// isNaN64 and isNaN32 read the bits through the host's floating point.
func isNaN64(a uint64) bool { return math.IsNaN(math.Float64frombits(a)) }
func isNaN32(a uint32) bool { return math.IsNaN(float64(math.Float32frombits(a))) }

// sameF64 compares results treating every NaN encoding as equal.
func sameF64(a, b uint64) bool {
	if isNaN64(a) && isNaN64(b) {
		return true
	}
	return a == b
}

func sameF32(a, b uint32) bool {
	if isNaN32(a) && isNaN32(b) {
		return true
	}
	return a == b
}

func TestAdd64MatchesNativeRNE(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 200000; i++ {
		a, b := randF64(rng), randF64(rng)
		got, _ := Add64(a, b, RNE)
		want := math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
		if !sameF64(got, want) {
			t.Fatalf("Add64(%#x, %#x) = %#x, native %#x", a, b, got, want)
		}
	}
}

func TestSub64MatchesNativeRNE(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200000; i++ {
		a, b := randF64(rng), randF64(rng)
		got, _ := Sub64(a, b, RNE)
		want := math.Float64bits(math.Float64frombits(a) - math.Float64frombits(b))
		if !sameF64(got, want) {
			t.Fatalf("Sub64(%#x, %#x) = %#x, native %#x", a, b, got, want)
		}
	}
}

func TestMul64MatchesNativeRNE(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 200000; i++ {
		a, b := randF64(rng), randF64(rng)
		got, _ := Mul64(a, b, RNE)
		want := math.Float64bits(math.Float64frombits(a) * math.Float64frombits(b))
		if !sameF64(got, want) {
			t.Fatalf("Mul64(%#x, %#x) = %#x, native %#x", a, b, got, want)
		}
	}
}

func TestDiv64MatchesNativeRNE(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 200000; i++ {
		a, b := randF64(rng), randF64(rng)
		got, _ := Div64(a, b, RNE)
		want := math.Float64bits(math.Float64frombits(a) / math.Float64frombits(b))
		if !sameF64(got, want) {
			t.Fatalf("Div64(%#x, %#x) = %#x, native %#x", a, b, got, want)
		}
	}
}

func TestSqrt64MatchesNative(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 100000; i++ {
		a := randF64(rng)
		got, _ := Sqrt64(a, RNE)
		want := math.Float64bits(math.Sqrt(math.Float64frombits(a)))
		if !sameF64(got, want) {
			t.Fatalf("Sqrt64(%#x) = %#x, native %#x", a, got, want)
		}
	}
}

func TestFMA64MatchesNative(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 200000; i++ {
		a, b, c := randF64(rng), randF64(rng), randF64(rng)
		got, _ := FMA64(a, b, c, RNE)
		want := math.Float64bits(math.FMA(math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c)))
		if !sameF64(got, want) {
			t.Fatalf("FMA64(%#x, %#x, %#x) = %#x, native %#x", a, b, c, got, want)
		}
	}
}

func TestF32OpsMatchNativeRNE(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 200000; i++ {
		a, b := randF32(rng), randF32(rng)
		fa, fb := math.Float32frombits(a), math.Float32frombits(b)
		if got, _ := Add32(a, b, RNE); !sameF32(got, math.Float32bits(fa+fb)) {
			t.Fatalf("Add32(%#x, %#x) = %#x, native %#x", a, b, got, math.Float32bits(fa+fb))
		}
		if got, _ := Sub32(a, b, RNE); !sameF32(got, math.Float32bits(fa-fb)) {
			t.Fatalf("Sub32(%#x, %#x) = %#x, native %#x", a, b, got, math.Float32bits(fa-fb))
		}
		if got, _ := Mul32(a, b, RNE); !sameF32(got, math.Float32bits(fa*fb)) {
			t.Fatalf("Mul32(%#x, %#x) = %#x, native %#x", a, b, got, math.Float32bits(fa*fb))
		}
		if got, _ := Div32(a, b, RNE); !sameF32(got, math.Float32bits(fa/fb)) {
			t.Fatalf("Div32(%#x, %#x) = %#x, native %#x", a, b, got, math.Float32bits(fa/fb))
		}
		if got, _ := Sqrt32(a, RNE); !sameF32(got, math.Float32bits(float32(math.Sqrt(float64(fa))))) {
			t.Fatalf("Sqrt32(%#x) = %#x", a, got)
		}
	}
}

// TestDirectedRoundingBracketing checks RDN <= RNE/RMM <= RUP ordering and
// that RTZ equals whichever of RDN/RUP is towards zero; when RDN == RUP the
// operation is exact and all modes agree.
func TestDirectedRoundingBracketing(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ops := []func(a, b uint64, rm RM) (uint64, Flags){Add64, Sub64, Mul64, Div64}
	le := func(x, y uint64) bool {
		fx, fy := math.Float64frombits(x), math.Float64frombits(y)
		return fx <= fy || (fx == 0 && fy == 0)
	}
	for i := 0; i < 50000; i++ {
		a, b := randF64(rng), randF64(rng)
		for _, op := range ops {
			dn, _ := op(a, b, RDN)
			up, _ := op(a, b, RUP)
			ne, _ := op(a, b, RNE)
			mm, _ := op(a, b, RMM)
			tz, _ := op(a, b, RTZ)
			if isNaN64(ne) {
				if !isNaN64(dn) || !isNaN64(up) || !isNaN64(tz) || !isNaN64(mm) {
					t.Fatalf("NaN disagreement for %#x,%#x", a, b)
				}
				continue
			}
			if !le(dn, up) || !le(dn, ne) || !le(ne, up) || !le(dn, mm) || !le(mm, up) {
				t.Fatalf("bracketing violated: a=%#x b=%#x dn=%#x ne=%#x up=%#x", a, b, dn, ne, up)
			}
			if dn == up && (ne != dn || tz != dn || mm != dn) {
				t.Fatalf("exact result disagreement: a=%#x b=%#x", a, b)
			}
			// RTZ is the inward one of dn/up.
			fdn := math.Float64frombits(dn)
			var wantTZ uint64
			if fdn >= 0 || math.Signbit(math.Float64frombits(up)) == false && fdn == 0 {
				wantTZ = dn
			} else {
				wantTZ = up
			}
			if math.Float64frombits(up) <= 0 {
				wantTZ = up
			} else if fdn >= 0 {
				wantTZ = dn
			} else {
				continue // straddles zero only when exact zero; skip
			}
			if tz != wantTZ && !isNaN64(tz) {
				t.Fatalf("RTZ mismatch: a=%#x b=%#x dn=%#x up=%#x tz=%#x", a, b, dn, up, tz)
			}
		}
	}
}

func TestDirectedRoundingKnownVectors(t *testing.T) {
	one := math.Float64bits(1)
	three := math.Float64bits(3)
	third := func(rm RM) uint64 { v, _ := Div64(one, three, rm); return v }
	// 1/3 = 0x3FD5555555555555 (RNE, RDN, RTZ) and ...56 for RUP.
	if third(RNE) != 0x3fd5555555555555 || third(RDN) != 0x3fd5555555555555 ||
		third(RTZ) != 0x3fd5555555555555 || third(RUP) != 0x3fd5555555555556 {
		t.Errorf("1/3 rounding wrong: rne=%#x rdn=%#x rtz=%#x rup=%#x",
			third(RNE), third(RDN), third(RTZ), third(RUP))
	}
	negThird := func(rm RM) uint64 { v, _ := Div64(math.Float64bits(-1), three, rm); return v }
	if negThird(RDN) != 0xbfd5555555555556 || negThird(RUP) != 0xbfd5555555555555 ||
		negThird(RTZ) != 0xbfd5555555555555 {
		t.Errorf("-1/3 rounding wrong: rdn=%#x rup=%#x rtz=%#x",
			negThird(RDN), negThird(RUP), negThird(RTZ))
	}
	// RMM ties away: 1 + 2^-53 is a tie between 1 and 1+ulp.
	tie := uint64(0x3ca0000000000000) // 2^-53
	if v, _ := Add64(one, tie, RNE); v != one {
		t.Errorf("RNE tie: %#x", v)
	}
	if v, _ := Add64(one, tie, RMM); v != one+1 {
		t.Errorf("RMM tie: %#x", v)
	}
}

func TestOverflowBehaviourPerMode(t *testing.T) {
	big_ := uint64(0x7fefffffffffffff) // max finite
	inf := uint64(0x7ff0000000000000)
	if v, fl := Mul64(big_, big_, RNE); v != inf || fl&(OF|NX) != OF|NX {
		t.Errorf("RNE overflow: %#x flags %b", v, fl)
	}
	if v, _ := Mul64(big_, big_, RTZ); v != big_ {
		t.Errorf("RTZ overflow: %#x", v)
	}
	if v, _ := Mul64(big_, big_, RDN); v != big_ {
		t.Errorf("RDN positive overflow: %#x", v)
	}
	if v, _ := Mul64(big_, big_, RUP); v != inf {
		t.Errorf("RUP positive overflow: %#x", v)
	}
	negBig := big_ | 1<<63
	if v, _ := Mul64(big_, negBig, RUP); v != negBig {
		t.Errorf("RUP negative overflow: %#x", v)
	}
	if v, _ := Mul64(big_, negBig, RDN); v != inf|1<<63 {
		t.Errorf("RDN negative overflow: %#x", v)
	}
}

func TestFlagsBasics(t *testing.T) {
	one := math.Float64bits(1)
	zero := uint64(0)
	if _, fl := Div64(one, zero, RNE); fl != DZ {
		t.Errorf("1/0 flags = %b, want DZ", fl)
	}
	if _, fl := Div64(zero, zero, RNE); fl != NV {
		t.Errorf("0/0 flags = %b, want NV", fl)
	}
	if v, fl := Sqrt64(math.Float64bits(-1), RNE); v != QNaN64 || fl != NV {
		t.Errorf("sqrt(-1) = %#x flags %b", v, fl)
	}
	if _, fl := Div64(one, math.Float64bits(3), RNE); fl != NX {
		t.Errorf("1/3 flags = %b, want NX", fl)
	}
	if _, fl := Add64(one, one, RNE); fl != 0 {
		t.Errorf("1+1 flags = %b, want none", fl)
	}
	// Subnormal inexact result raises UF|NX.
	tiny := uint64(1) // smallest subnormal
	if _, fl := Div64(tiny, math.Float64bits(3), RNE); fl&(UF|NX) != UF|NX {
		t.Errorf("tiny/3 flags = %b, want UF|NX", fl)
	}
	// Signaling NaN input raises NV; quiet NaN does not (for arithmetic).
	snan := uint64(0x7ff0000000000001)
	if v, fl := Add64(one, snan, RNE); v != QNaN64 || fl != NV {
		t.Errorf("1+sNaN = %#x flags %b", v, fl)
	}
	if v, fl := Add64(one, QNaN64, RNE); v != QNaN64 || fl != 0 {
		t.Errorf("1+qNaN = %#x flags %b", v, fl)
	}
	// inf - inf is invalid.
	inf := uint64(0x7ff0000000000000)
	if v, fl := Sub64(inf, inf, RNE); v != QNaN64 || fl != NV {
		t.Errorf("inf-inf = %#x flags %b", v, fl)
	}
	// 0 * inf is invalid, also under FMA.
	if v, fl := Mul64(zero, inf, RNE); v != QNaN64 || fl != NV {
		t.Errorf("0*inf = %#x flags %b", v, fl)
	}
	if v, fl := FMA64(zero, inf, one, RNE); v != QNaN64 || fl != NV {
		t.Errorf("fma(0,inf,1) = %#x flags %b", v, fl)
	}
	if v, fl := FMA64(zero, inf, QNaN64, RNE); v != QNaN64 || fl != NV {
		t.Errorf("fma(0,inf,qnan) = %#x flags %b", v, fl)
	}
}

func TestMinMaxSemantics(t *testing.T) {
	posZero, negZero := uint64(0), uint64(1)<<63
	one := math.Float64bits(1)
	snan := uint64(0x7ff0000000000001)
	if v, _ := Min64(posZero, negZero); v != negZero {
		t.Errorf("min(+0,-0) = %#x, want -0", v)
	}
	if v, _ := Max64(posZero, negZero); v != posZero {
		t.Errorf("max(+0,-0) = %#x, want +0", v)
	}
	if v, fl := Min64(one, QNaN64); v != one || fl != 0 {
		t.Errorf("min(1,qnan) = %#x flags %b", v, fl)
	}
	if v, fl := Min64(one, snan); v != one || fl != NV {
		t.Errorf("min(1,snan) = %#x flags %b", v, fl)
	}
	if v, fl := Min64(QNaN64, QNaN64); v != QNaN64 || fl != 0 {
		t.Errorf("min(qnan,qnan) = %#x flags %b", v, fl)
	}
	if v, _ := Min64(math.Float64bits(-3), math.Float64bits(2)); v != math.Float64bits(-3) {
		t.Errorf("min(-3,2) = %#x", v)
	}
	if v, _ := Max64(math.Float64bits(-3), math.Float64bits(2)); v != math.Float64bits(2) {
		t.Errorf("max(-3,2) = %#x", v)
	}
}

func TestCompareSemantics(t *testing.T) {
	one, two := math.Float64bits(1), math.Float64bits(2)
	snan := uint64(0x7ff0000000000001)
	if eq, fl := Eq64(one, one); !eq || fl != 0 {
		t.Errorf("1==1: %v %b", eq, fl)
	}
	if eq, _ := Eq64(0, 1<<63); !eq {
		t.Error("+0 != -0")
	}
	if eq, fl := Eq64(one, QNaN64); eq || fl != 0 {
		t.Errorf("quiet compare with qnan: %v %b", eq, fl)
	}
	if eq, fl := Eq64(one, snan); eq || fl != NV {
		t.Errorf("quiet compare with snan: %v %b", eq, fl)
	}
	if lt, fl := Lt64(one, QNaN64); lt || fl != NV {
		t.Errorf("signaling compare with qnan: %v %b", lt, fl)
	}
	if lt, _ := Lt64(one, two); !lt {
		t.Error("1 < 2 failed")
	}
	if lt, _ := Lt64(math.Float64bits(-1), one); !lt {
		t.Error("-1 < 1 failed")
	}
	if le, _ := Le64(two, one); le {
		t.Error("2 <= 1 wrongly true")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		bits uint64
		want uint32
	}{
		{math.Float64bits(math.Inf(-1)), ClassNegInf},
		{math.Float64bits(-1.5), ClassNegNormal},
		{0x8000000000000001, ClassNegSubnormal},
		{1 << 63, ClassNegZero},
		{0, ClassPosZero},
		{1, ClassPosSubnormal},
		{math.Float64bits(1.5), ClassPosNormal},
		{math.Float64bits(math.Inf(1)), ClassPosInf},
		{0x7ff0000000000001, ClassSNaN},
		{QNaN64, ClassQNaN},
	}
	for _, c := range cases {
		if got := Class64(c.bits); got != c.want {
			t.Errorf("Class64(%#x) = %#x, want %#x", c.bits, got, c.want)
		}
	}
	if got := Class32(QNaN32); got != ClassQNaN {
		t.Errorf("Class32(qnan) = %#x", got)
	}
	if got := Class32(0x00000001); got != ClassPosSubnormal {
		t.Errorf("Class32(min subnormal) = %#x", got)
	}
}

func TestIntConversions(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 100000; i++ {
		a := randF64(rng)
		fa := math.Float64frombits(a)
		got, _ := F64ToI32(a, RTZ)
		if !math.IsNaN(fa) && fa > -2147483649 && fa < 2147483648 {
			want := uint32(int32(fa)) // Go float->int conversion truncates
			if got != want {
				t.Fatalf("F64ToI32(%v RTZ) = %d, want %d", fa, int32(got), int32(want))
			}
		}
	}
	// Saturation and NV behaviour.
	if v, fl := F64ToI32(math.Float64bits(1e300), RNE); v != 0x7fffffff || fl != NV {
		t.Errorf("huge to i32: %#x %b", v, fl)
	}
	if v, fl := F64ToI32(math.Float64bits(-1e300), RNE); v != 0x80000000 || fl != NV {
		t.Errorf("-huge to i32: %#x %b", v, fl)
	}
	if v, fl := F64ToI32(QNaN64, RNE); v != 0x7fffffff || fl != NV {
		t.Errorf("nan to i32: %#x %b", v, fl)
	}
	if v, fl := F64ToU32(QNaN64, RNE); v != 0xffffffff || fl != NV {
		t.Errorf("nan to u32: %#x %b", v, fl)
	}
	if v, fl := F64ToU32(math.Float64bits(-1), RNE); v != 0 || fl != NV {
		t.Errorf("-1 to u32: %#x %b", v, fl)
	}
	if v, fl := F64ToU32(math.Float64bits(-0.25), RNE); v != 0 || fl != NX {
		t.Errorf("-0.25 to u32: %#x %b", v, fl)
	}
	// Rounding-mode sensitivity.
	half := math.Float64bits(2.5)
	if v, _ := F64ToI32(half, RNE); v != 2 {
		t.Errorf("2.5 RNE = %d", v)
	}
	if v, _ := F64ToI32(half, RMM); v != 3 {
		t.Errorf("2.5 RMM = %d", v)
	}
	if v, _ := F64ToI32(half, RUP); v != 3 {
		t.Errorf("2.5 RUP = %d", v)
	}
	if v, _ := F64ToI32(math.Float64bits(-2.5), RDN); int32(v) != -3 {
		t.Errorf("-2.5 RDN = %d", int32(v))
	}
	// Exact boundary: 2^31-1 fits, 2^31 does not.
	if v, fl := F64ToI32(math.Float64bits(2147483647), RNE); v != 0x7fffffff || fl != 0 {
		t.Errorf("maxint: %d %b", int32(v), fl)
	}
	if v, fl := F64ToI32(math.Float64bits(2147483648), RNE); v != 0x7fffffff || fl != NV {
		t.Errorf("maxint+1: %d %b", int32(v), fl)
	}
	if v, fl := F64ToU32(math.Float64bits(4294967295), RNE); v != 0xffffffff || fl != 0 {
		t.Errorf("maxuint: %d %b", v, fl)
	}
}

func TestFromIntConversions(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 100000; i++ {
		v := rng.Uint32()
		if got, _ := I32ToF64(v, RNE); got != math.Float64bits(float64(int32(v))) {
			t.Fatalf("I32ToF64(%d) = %#x", int32(v), got)
		}
		if got, _ := U32ToF64(v, RNE); got != math.Float64bits(float64(v)) {
			t.Fatalf("U32ToF64(%d) = %#x", v, got)
		}
		if got, _ := I32ToF32(v, RNE); got != math.Float32bits(float32(int32(v))) {
			t.Fatalf("I32ToF32(%d) = %#x", int32(v), got)
		}
		if got, _ := U32ToF32(v, RNE); got != math.Float32bits(float32(v)) {
			t.Fatalf("U32ToF32(%d) = %#x", v, got)
		}
	}
	// Inexact int->f32 sets NX.
	if _, fl := I32ToF32(0x7fffffff, RNE); fl != NX {
		t.Errorf("maxint to f32 flags %b, want NX", fl)
	}
	if _, fl := I32ToF64(0x7fffffff, RNE); fl != 0 {
		t.Errorf("maxint to f64 flags %b, want none", fl)
	}
}

func TestFormatConversions(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 100000; i++ {
		a := randF32(rng)
		got, _ := F32ToF64(a)
		want := math.Float64bits(float64(math.Float32frombits(a)))
		if !sameF64(got, want) {
			t.Fatalf("F32ToF64(%#x) = %#x, want %#x", a, got, want)
		}
		d := randF64(rng)
		got32, _ := F64ToF32(d, RNE)
		want32 := math.Float32bits(float32(math.Float64frombits(d)))
		if !sameF32(got32, want32) {
			t.Fatalf("F64ToF32(%#x) = %#x, want %#x", d, got32, want32)
		}
	}
	// sNaN conversion raises NV and returns the canonical NaN.
	if v, fl := F32ToF64(0x7f800001); v != QNaN64 || fl != NV {
		t.Errorf("snan widen: %#x %b", v, fl)
	}
}

func TestNaNBoxing(t *testing.T) {
	if Box32(0x3f800000) != 0xffffffff3f800000 {
		t.Error("Box32 wrong")
	}
	if Unbox32(0xffffffff3f800000) != 0x3f800000 {
		t.Error("Unbox32 wrong")
	}
	// Improperly boxed values read as the canonical NaN.
	if Unbox32(0x000000003f800000) != QNaN32 {
		t.Error("Unbox32 must canonicalize unboxed values")
	}
	if Unbox32(math.Float64bits(1.0)) != QNaN32 {
		t.Error("Unbox32 of a double must be NaN")
	}
}

func TestFMA32Vectors(t *testing.T) {
	f := func(x float32) uint32 { return math.Float32bits(x) }
	// Exact cancellation picking up the addend: a*b = 1<<24+1 exactly
	// representable only via FMA.
	a, b := f(4097), f(4097) // 4097^2 = 16785409 = 2^24 + 8192 + 1... compute separately
	got, _ := FMA32(a, b, f(0), RNE)
	want := math.Float32bits(float32(float64(4097) * float64(4097)))
	if got != want {
		t.Errorf("fma(4097,4097,0) = %#x, want %#x", got, want)
	}
	// fma(a, b, c) where rounding a*b first would lose the low bit:
	// (2^12+1)^2 = 2^24 + 2^13 + 1; adding -2^24 leaves 2^13+1 exactly.
	got, _ = FMA32(f(4097), f(4097), f(-16777216), RNE)
	if got != f(8193) {
		t.Errorf("fma single rounding = %v, want 8193", math.Float32frombits(got))
	}
	// Whereas mul-then-add double rounds to 8192.
	m, _ := Mul32(f(4097), f(4097), RNE)
	s, _ := Add32(m, f(-16777216), RNE)
	if s != f(8192) {
		t.Errorf("mul+add = %v, want 8192", math.Float32frombits(s))
	}
	// Random finite checks against float64 emulation where the double
	// rounding cannot bite (product exact in f64 and |c| comparable).
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 50000; i++ {
		x := float32(rng.Intn(1 << 12))
		y := float32(rng.Intn(1 << 12))
		z := float32(rng.Intn(1<<20) - 1<<19)
		got, _ := FMA32(f(x), f(y), f(z), RNE)
		want := math.Float32bits(float32(math.FMA(float64(x), float64(y), float64(z))))
		if got != want {
			t.Fatalf("FMA32(%v,%v,%v) = %#x, want %#x", x, y, z, got, want)
		}
	}
}

func TestSubnormalArithmetic(t *testing.T) {
	// Smallest subnormal halves to zero (RNE, ties to even).
	tiny := uint64(1)
	if v, fl := Div64(tiny, math.Float64bits(2), RNE); v != 0 || fl&(UF|NX) != UF|NX {
		t.Errorf("tiny/2 = %#x flags %b", v, fl)
	}
	// 3*tiny/2 rounds to 2*tiny (RNE, ties to even).
	three := uint64(3) // subnormal with value 3*2^-1074
	if v, _ := Div64(three, math.Float64bits(2), RNE); v != 2 {
		t.Errorf("3ulp/2 = %#x, want 2", v)
	}
	// Subnormal + subnormal is exact.
	if v, fl := Add64(tiny, three, RNE); v != 4 || fl != 0 {
		t.Errorf("tiny+3ulp = %#x flags %b", v, fl)
	}
	// RUP forces the smallest subnormal instead of zero.
	if v, _ := Div64(tiny, math.Float64bits(4), RUP); v != 1 {
		t.Errorf("tiny/4 RUP = %#x, want 1", v)
	}
	if v, _ := Div64(tiny, math.Float64bits(4), RDN); v != 0 {
		t.Errorf("tiny/4 RDN = %#x, want 0", v)
	}
}
