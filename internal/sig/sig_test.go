package sig

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestFormatParseRoundtrip(t *testing.T) {
	f := func(words []uint32) bool {
		s := Signature(words)
		back, err := Parse(s.String())
		if err != nil {
			return false
		}
		return slices.Equal(s, back) || (len(words) == 0 && len(back) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestFormat(t *testing.T) {
	s := Signature{0xdeadbeef, 0x00000001}
	if s.String() != "deadbeef\n00000001\n" {
		t.Errorf("format = %q", s.String())
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"zz", "123", "123456789", "1234567g"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) must fail", bad)
		}
	}
	// Uppercase and blank lines are accepted.
	s, err := Parse("DEADBEEF\n\n00000002\n")
	if err != nil || len(s) != 2 || s[0] != 0xdeadbeef {
		t.Errorf("lenient parse: %v %v", s, err)
	}
}

func TestEqualAndDiff(t *testing.T) {
	a := Signature{1, 2, 3}
	b := Signature{1, 9, 3}
	if slices.Equal(a, b) || !slices.Equal(a, a) {
		t.Error("Equal wrong")
	}
	if d := Diff(a, b); len(d) != 1 || d[0] != 1 {
		t.Errorf("Diff = %v", d)
	}
	if d := Diff(a, a[:2]); len(d) != 1 || d[0] != 2 {
		t.Errorf("length diff = %v", d)
	}
	if slices.Equal(a, a[:2]) {
		t.Error("length-unequal must not be equal")
	}
}

func TestCompareWithDontCare(t *testing.T) {
	ref := Signature{10, 20, 30}
	got := Signature{10, 99, 30}
	if d := Compare(ref, got, nil); len(d) != 1 || d[0] != 1 {
		t.Fatalf("no rules: %v", d)
	}
	dc := &DontCare{Rules: []Rule{{Word: 1, Kind: CondAlways}}}
	if d := Compare(ref, got, dc); len(d) != 0 {
		t.Errorf("always rule: %v", d)
	}
	// IfZero: ignored only when the output is zero (the MTVAL case).
	dc = &DontCare{Rules: []Rule{{Word: 1, Kind: CondIfZero}}}
	if d := Compare(ref, Signature{10, 0, 30}, dc); len(d) != 0 {
		t.Errorf("ifzero with zero output: %v", d)
	}
	if d := Compare(ref, got, dc); len(d) != 1 {
		t.Errorf("ifzero with nonzero output: %v", d)
	}
	// Mask: only selected bits compared.
	dc = &DontCare{Rules: []Rule{{Word: 1, Kind: CondMask, Mask: 0xff00}}}
	if d := Compare(Signature{0, 0x1234, 0}, Signature{0, 0x12ff, 0}, dc); len(d) != 0 {
		t.Errorf("mask match: %v", d)
	}
	if d := Compare(Signature{0, 0x1234, 0}, Signature{0, 0x22ff, 0}, dc); len(d) != 1 {
		t.Errorf("mask mismatch: %v", d)
	}
}

func TestDontCareSerialization(t *testing.T) {
	d := &DontCare{Rules: []Rule{
		{Word: 30, Kind: CondIfZero},
		{Word: 5, Kind: CondAlways},
		{Word: 7, Kind: CondMask, Mask: 0xffff0000},
	}}
	text := d.Format()
	back, err := ParseDontCare(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Rules) != 3 {
		t.Fatalf("rules = %d", len(back.Rules))
	}
	for i, r := range back.Rules {
		if r != d.Rules[i] {
			t.Errorf("rule %d: %+v != %+v", i, r, d.Rules[i])
		}
	}
	for _, bad := range []string{"x always", "1", "1 frobnicate", "1 mask", "1 mask zz"} {
		if _, err := ParseDontCare(bad); err == nil {
			t.Errorf("ParseDontCare(%q) must fail", bad)
		}
	}
	if d, err := ParseDontCare("# comment\n\n3 always\n"); err != nil || len(d.Rules) != 1 {
		t.Errorf("lenient parse: %v %v", d, err)
	}
}
