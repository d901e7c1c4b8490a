package resilience

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// WriteFileAtomic writes data so a crash at any point leaves either the
// old file or the new one, never a torn mix: write to a temp file in the
// same directory, fsync it, rename over the target, fsync the directory.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmpName, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// IsAtomicTemp reports whether a directory entry name is one of
// WriteFileAtomic's temp files: a write in flight, or one a crash left
// behind. Listings of directories it writes skip them.
func IsAtomicTemp(name string) bool {
	return strings.HasPrefix(name, ".") && strings.Contains(name, ".tmp")
}

// Envelope is the versioned wrapper around every checkpoint state file.
// Format names the producer ("rvfuzz-checkpoint", "rvcompliance-
// checkpoint"), Version its schema revision; readers reject mismatched
// formats and versions newer than they understand.
type Envelope struct {
	Format  string          `json:"format"`
	Version int             `json:"version"`
	Payload json.RawMessage `json:"payload"`
}

// SaveJSON atomically writes payload under a versioned envelope, as
// compact JSON. It encodes the envelope and the payload in one pass:
// embedding a pre-encoded payload as Envelope's RawMessage would make
// encoding/json scan it a second time.
func SaveJSON(path, format string, version int, payload any) error {
	data, err := json.Marshal(struct {
		Format  string `json:"format"`
		Version int    `json:"version"`
		Payload any    `json:"payload"`
	}{format, version, payload})
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, append(data, '\n'))
}

// LoadJSON reads an envelope written by SaveJSON, compact or indented,
// validating the format name and rejecting versions newer than
// maxVersion, and unmarshals the payload into out. It returns the stored
// version so callers can refuse or migrate older schemas.
func LoadJSON(path, format string, maxVersion int, out any) (version int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return 0, fmt.Errorf("resilience: %s: %w", path, err)
	}
	if env.Format != format {
		return 0, fmt.Errorf("resilience: %s: format %q, want %q", path, env.Format, format)
	}
	if env.Version > maxVersion {
		return 0, fmt.Errorf("resilience: %s: version %d newer than supported %d", path, env.Version, maxVersion)
	}
	if env.Version < 1 {
		return 0, fmt.Errorf("resilience: %s: invalid version %d", path, env.Version)
	}
	if err := json.Unmarshal(env.Payload, out); err != nil {
		return 0, fmt.Errorf("resilience: %s: payload: %w", path, err)
	}
	return env.Version, nil
}
