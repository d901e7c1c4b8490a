package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"
)

// File is the JSON result rvbench writes: the evidence of how it was
// measured and one result per workload.
type File struct {
	Evidence  Evidence  `json:"evidence"`
	Workloads []*Result `json:"workloads"`
}

// Verdict is the outcome of comparing one (workload, metric) pair.
type Verdict string

const (
	Improved   Verdict = "improved"
	Unchanged  Verdict = "unchanged"
	Regressed  Verdict = "regressed"
	Unresolved Verdict = "unresolved"
)

// Comparison is one (workload, metric) row of Compare.
type Comparison struct {
	Workload, Metric string
	Unit             string
	Base, Head       [3]float64 // quartiles; [1] is the median
	// Wins is the share of runs paired in order in which head is better;
	// ties count for neither side.
	Wins    float64
	Verdict Verdict
}

// judge applies the comparison rule. A change improves a
// metric when it wins at least nine tenths of the pairs and the medians
// differ by more than the base runs' interquartile distance. It regresses
// an end-to-end metric when its median is worse than the base median by
// more than the metric's bound; when the base runs spread wider than the
// bound the metric is unresolved instead, unless every head run beats
// every base run. Per-layer metrics have no bound: they regress by the
// mirror of the improvement rule.
func judge(d Def, base, head []float64) Comparison {
	c := Comparison{Metric: d.Name, Unit: d.Unit}
	c.Base[0], c.Base[1], c.Base[2] = quartiles(base)
	c.Head[0], c.Head[1], c.Head[2] = quartiles(head)
	sign := 1.0
	if d.Better == "lower" {
		sign = -1
	}
	pairs, wins, losses := min(len(base), len(head)), 0, 0
	for i := 0; i < pairs; i++ {
		switch diff := sign * (head[i] - base[i]); {
		case diff > 0:
			wins++
		case diff < 0:
			losses++
		}
	}
	if pairs > 0 {
		c.Wins = float64(wins) / float64(pairs)
	}
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && sign*(h-b) > 0
		}
	}
	gain := sign * (c.Head[1] - c.Base[1])
	iqr := c.Base[2] - c.Base[0]
	scale := math.Abs(c.Base[1])
	separated := math.Abs(gain) > iqr
	switch {
	case d.Bound > 0 && iqr > d.Bound*scale && !allBetter:
		c.Verdict = Unresolved
	case d.Bound > 0 && -gain > d.Bound*scale:
		c.Verdict = Regressed
	case c.Wins >= 0.9 && gain > 0 && separated:
		c.Verdict = Improved
	case d.Bound == 0 && pairs > 0 && float64(losses)/float64(pairs) >= 0.9 && gain < 0 && separated:
		c.Verdict = Regressed
	default:
		c.Verdict = Unchanged
	}
	return c
}

// Compare pairs the runs of base and head (result files of the same
// benchmark on two commits, in the order they ran) and judges every
// ledger metric of every workload both sides measured.
func Compare(base, head []*File) []Comparison {
	type key struct{ workload, metric string }
	collect := func(files []*File) map[key][]float64 {
		vals := map[key][]float64{}
		for _, f := range files {
			for _, r := range f.Workloads {
				for name, s := range r.Metrics {
					k := key{r.Workload, name}
					vals[k] = append(vals[k], s.Value)
				}
			}
		}
		return vals
	}
	bv, hv := collect(base), collect(head)
	defs := map[string]Def{}
	for _, d := range append(append([]Def(nil), EndToEnd...), PerLayer...) {
		defs[d.Name] = d
	}
	var out []Comparison
	for k, b := range bv {
		d, ok := defs[k.metric]
		h := hv[k]
		if !ok || len(h) == 0 {
			continue
		}
		c := judge(d, b, h)
		c.Workload = k.workload
		out = append(out, c)
	}
	order := map[string]int{}
	for i, w := range Workloads {
		order[w] = i
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return order[out[i].Workload] < order[out[j].Workload]
		}
		return out[i].Metric < out[j].Metric
	})
	return out
}

// WriteComparison renders Compare's rows as a table.
func WriteComparison(w io.Writer, rows []Comparison) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3]\thead median [q1, q3]\twins\tverdict")
	for _, c := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%.2f\t%s\n",
			c.Workload, c.Metric, c.Unit, c.Base[1], c.Base[0], c.Base[2],
			c.Head[1], c.Head[0], c.Head[2], c.Wins, c.Verdict)
	}
	return tw.Flush()
}
