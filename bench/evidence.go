package bench

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// SchemaVersion versions the result file's layout.
const SchemaVersion = 1

// Evidence records how a result file was measured.
type Evidence struct {
	Schema     int      `json:"schema"`
	Argv       []string `json:"argv"`
	Seed       int64    `json:"seed"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NProc      int      `json:"nproc"`
	CPU        string   `json:"cpu"`
	// Revision and Dirty are the VCS state the binary was built from
	// ("unknown" outside a checkout with version control).
	Revision string `json:"revision"`
	Dirty    bool   `json:"dirty"`
	// Runs holds one entry per workload child process.
	Runs []RunEvidence `json:"runs"`
}

// RunEvidence is one workload child process's exit status and wall time.
type RunEvidence struct {
	Workload string  `json:"workload"`
	Exit     int     `json:"exit"`
	WallS    float64 `json:"wall_s"`
}

// NewEvidence describes the current process and machine.
func NewEvidence(seed int64) Evidence {
	ev := Evidence{
		Schema:     SchemaVersion,
		Argv:       os.Args,
		Seed:       seed,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Revision:   "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				ev.Revision = s.Value
			case "vcs.modified":
				ev.Dirty = s.Value == "true"
			}
		}
	}
	return ev
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
