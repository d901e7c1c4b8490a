// Package sig handles compliance-test signatures: the in-memory register
// dump a test case produces, serialized in the official compliance format
// (one 32-bit word per line, lowercase hex), compared word-for-word
// against a reference. It also implements the paper's proposed extension
// (section VI, direction 3): a don't-care mask stored alongside the
// reference that conditionally excludes words from the comparison.
package sig

import (
	"fmt"
	"strings"
)

// Signature is an ordered sequence of 32-bit signature words.
type Signature []uint32

// String renders the official compliance-signature format.
func (s Signature) String() string {
	var b strings.Builder
	for _, w := range s {
		fmt.Fprintf(&b, "%08x\n", w)
	}
	return b.String()
}

// Parse reads a signature in the compliance format.
func Parse(text string) (Signature, error) {
	var out Signature
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if len(line) != 8 {
			return nil, fmt.Errorf("sig: line %d: want 8 hex digits, got %q", i+1, line)
		}
		var w uint32
		for _, c := range line {
			var d uint32
			switch {
			case c >= '0' && c <= '9':
				d = uint32(c - '0')
			case c >= 'a' && c <= 'f':
				d = uint32(c-'a') + 10
			case c >= 'A' && c <= 'F':
				d = uint32(c-'A') + 10
			default:
				return nil, fmt.Errorf("sig: line %d: bad hex digit %q", i+1, c)
			}
			w = w<<4 | d
		}
		out = append(out, w)
	}
	return out, nil
}

// Cond is a don't-care condition kind.
type Cond uint8

const (
	// CondAlways: the word is never compared (fully architecture
	// specific, e.g. a cycle counter).
	CondAlways Cond = iota
	// CondIfZero: the word is ignored when the test output is zero (the
	// paper's MTVAL example: implementations may legally report zero).
	CondIfZero
	// CondMask: only the bits set in Mask are compared.
	CondMask
)

// Rule is one don't-care entry.
type Rule struct {
	Word int
	Kind Cond
	Mask uint32 // for CondMask
}

// DontCare is the optional companion of a reference signature.
type DontCare struct {
	Rules []Rule
}

// ignores reports whether a rule excuses word i, whose test output got
// differs from its reference ref.
func (d *DontCare) ignores(i int, ref, got uint32) bool {
	if d == nil {
		return false
	}
	for _, r := range d.Rules {
		if r.Word != i {
			continue
		}
		switch r.Kind {
		case CondAlways:
			return true
		case CondIfZero:
			return got == 0
		case CondMask:
			return ref&r.Mask == got&r.Mask
		}
		return false
	}
	return false
}

// Mismatches calls fn with the index of each real mismatch between a test
// output and its reference under the don't-care rules (nil: none), in
// ascending order; a length difference comes last, as index min(len). It
// allocates nothing, so a caller that needs only a verdict reads it in
// one walk of the two signatures.
func Mismatches(ref, got Signature, dc *DontCare, fn func(int)) {
	n := min(len(ref), len(got))
	for i := 0; i < n; i++ {
		if ref[i] != got[i] && !dc.ignores(i, ref[i], got[i]) {
			fn(i)
		}
	}
	if len(ref) != len(got) {
		fn(n)
	}
}

// Compare checks a test output against a reference under the don't-care
// rules, returning the indexes of real mismatches (Mismatches).
func Compare(ref, got Signature, dc *DontCare) []int {
	var out []int
	Mismatches(ref, got, dc, func(i int) { out = append(out, i) })
	return out
}

// Format serializes a don't-care file: "word kind [mask]" per line.
func (d *DontCare) Format() string {
	var b strings.Builder
	for _, r := range d.Rules {
		switch r.Kind {
		case CondAlways:
			fmt.Fprintf(&b, "%d always\n", r.Word)
		case CondIfZero:
			fmt.Fprintf(&b, "%d ifzero\n", r.Word)
		case CondMask:
			fmt.Fprintf(&b, "%d mask %08x\n", r.Word, r.Mask)
		}
	}
	return b.String()
}

// ParseDontCare reads the Format serialization.
func ParseDontCare(text string) (*DontCare, error) {
	d := &DontCare{}
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var r Rule
		var kind string
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("sig: dontcare line %d: malformed", i+1)
		}
		if _, err := fmt.Sscanf(fields[0], "%d", &r.Word); err != nil {
			return nil, fmt.Errorf("sig: dontcare line %d: bad word index", i+1)
		}
		kind = fields[1]
		switch kind {
		case "always":
			r.Kind = CondAlways
		case "ifzero":
			r.Kind = CondIfZero
		case "mask":
			r.Kind = CondMask
			if len(fields) != 3 {
				return nil, fmt.Errorf("sig: dontcare line %d: mask needs a value", i+1)
			}
			if _, err := fmt.Sscanf(fields[2], "%x", &r.Mask); err != nil {
				return nil, fmt.Errorf("sig: dontcare line %d: bad mask", i+1)
			}
		default:
			return nil, fmt.Errorf("sig: dontcare line %d: unknown kind %q", i+1, kind)
		}
		d.Rules = append(d.Rules, r)
	}
	return d, nil
}
