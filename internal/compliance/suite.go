package compliance

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"rvnegtest/internal/template"
)

// emptyCase is the line of an empty bytestream: hex never produces it,
// and a blank line would be skipped on reading.
const emptyCase = "-"

// Format serializes the suite: a comment header followed by one
// hex-encoded bytestream per line. User-family suites stay byte-identical
// to the historical format; trap-family suites add a family header line.
func (s *Suite) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# rvnegtest suite: %d cases\n", len(s.Cases))
	if s.Family != template.FamilyUser {
		fmt.Fprintf(&b, "# family: %s\n", s.Family)
	}
	if s.Origin != "" {
		fmt.Fprintf(&b, "# origin: %s\n", s.Origin)
	}
	for _, c := range s.Cases {
		if len(c) == 0 {
			b.WriteString(emptyCase)
		}
		b.WriteString(hex.EncodeToString(c))
		b.WriteByte('\n')
	}
	return b.String()
}

// ParseSuite reads the Format serialization. A header that counts a
// different number of cases than the text holds is an error, so a
// truncated file fails instead of loading short.
func ParseSuite(text string) (*Suite, error) {
	s := &Suite{}
	count := -1
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if rest, ok := strings.CutPrefix(line, "# rvnegtest suite: "); ok {
				n, err := strconv.Atoi(strings.TrimSuffix(rest, " cases"))
				if err != nil {
					return nil, fmt.Errorf("compliance: suite line %d: bad header %q", i+1, line)
				}
				count = n
			}
			if rest, ok := strings.CutPrefix(line, "# origin: "); ok {
				s.Origin = rest
			}
			if rest, ok := strings.CutPrefix(line, "# family: "); ok {
				fam, ok := template.ParseFamily(rest)
				if !ok {
					return nil, fmt.Errorf("compliance: suite line %d: unknown family %q", i+1, rest)
				}
				s.Family = fam
			}
			continue
		}
		if line == emptyCase {
			line = ""
		}
		bs, err := hex.DecodeString(line)
		if err != nil {
			return nil, fmt.Errorf("compliance: suite line %d: %v", i+1, err)
		}
		s.Cases = append(s.Cases, bs)
	}
	if count >= 0 && count != len(s.Cases) {
		return nil, fmt.Errorf("compliance: suite header counts %d cases, the file holds %d", count, len(s.Cases))
	}
	return s, nil
}

// Save writes the suite to a file.
func (s *Suite) Save(path string) error {
	return os.WriteFile(path, []byte(s.Format()), 0o644)
}

// LoadSuite reads a suite file.
func LoadSuite(path string) (*Suite, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseSuite(string(b))
}

// WriteASM exports every test case as a standalone assembler source file
// in the compliance format (the distributable form of the suite: each file
// assembles for any supported platform).
func (s *Suite) WriteASM(dir string, l template.Layout) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, bs := range s.Cases {
		src, err := template.SourceFamily(bs, l, s.Family)
		if err != nil {
			return fmt.Errorf("case %d: %w", i, err)
		}
		name := filepath.Join(dir, fmt.Sprintf("test_%05d.S", i))
		if err := os.WriteFile(name, []byte(src), 0o644); err != nil {
			return err
		}
	}
	return nil
}
