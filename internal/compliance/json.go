package compliance

import "encoding/json"

// jsonCell is the machine-readable form of one Table I cell.
type jsonCell struct {
	Simulator  string         `json:"simulator"`
	Supported  bool           `json:"supported"`
	Mismatches int            `json:"mismatches"`
	Crashes    int            `json:"crashes,omitempty"`
	Timeouts   int            `json:"timeouts,omitempty"`
	Skipped    int            `json:"skipped,omitempty"`
	Categories map[string]int `json:"categories,omitempty"`
	Examples   []int          `json:"examples,omitempty"`

	// Degradation markers: harness-level faults and breaker action, kept
	// separate from the modeled crash/timeout counts above so dashboards
	// can tell findings from infrastructure failures.
	HarnessFaults    int      `json:"harness_faults,omitempty"`
	SkippedUnhealthy int      `json:"skipped_unhealthy,omitempty"`
	SkippedAdapter   int      `json:"skipped_adapter,omitempty"`
	Unhealthy        bool     `json:"unhealthy,omitempty"`
	FaultMsgs        []string `json:"fault_msgs,omitempty"`
}

type jsonRow struct {
	ISA     string     `json:"isa"`
	Skipped int        `json:"skipped,omitempty"`
	Cells   []jsonCell `json:"cells"`
}

type jsonReport struct {
	Reference string    `json:"reference"`
	Cases     int       `json:"cases"`
	Degraded  bool      `json:"degraded,omitempty"`
	Rows      []jsonRow `json:"rows"`
}

// JSON serializes the report for CI pipelines and dashboards.
func (r *Report) JSON() ([]byte, error) {
	out := jsonReport{Reference: r.RefName, Cases: r.Cases, Degraded: r.Degraded()}
	for i, cfg := range r.Configs {
		row := jsonRow{ISA: cfg.String()}
		if i < len(r.Skipped) {
			row.Skipped = r.Skipped[i]
		}
		for j, name := range r.Sims {
			c := r.Cells[i][j]
			jc := jsonCell{
				Simulator:  name,
				Supported:  c.Supported,
				Mismatches: c.Mismatches,
				Crashes:    c.Crashes,
				Timeouts:   c.Timeouts,
				Skipped:    c.Skipped,
				Examples:   c.Examples,

				HarnessFaults:    c.HarnessFaults,
				SkippedUnhealthy: c.SkippedUnhealthy,
				SkippedAdapter:   c.SkippedAdapter,
				Unhealthy:        c.Unhealthy,
				FaultMsgs:        c.FaultMsgs,
			}
			for k, n := range c.Categories {
				if n > 0 {
					if jc.Categories == nil {
						jc.Categories = map[string]int{}
					}
					jc.Categories[Category(k).String()] = n
				}
			}
			row.Cells = append(row.Cells, jc)
		}
		out.Rows = append(out.Rows, row)
	}
	return json.MarshalIndent(out, "", "  ")
}
