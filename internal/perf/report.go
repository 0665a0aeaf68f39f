package perf

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// PaperGridRows and PaperGridCols are the Figure 2 problem size (§6:
// "a grid size of 122 by 842 points").
const (
	PaperGridRows = 122
	PaperGridCols = 842
)

// Figure2Configs returns the configuration sweep of Figure 2: node ×
// processor combinations on the 122×842 grid, 8 sections (6 for the 3- and
// 6-node runs, as in the paper), plus the non-overlapped 8N×4P variant.
func Figure2Configs(iters int) []SORConfig {
	mk := func(nodes, procs, sections int, overlap bool) SORConfig {
		return SORConfig{
			Nodes: nodes, ProcsPerNode: procs, Sections: sections,
			Rows: PaperGridRows, Cols: PaperGridCols,
			Iters: iters, Overlap: overlap, Model: CVAX1989,
		}
	}
	return []SORConfig{
		mk(1, 1, 8, true),
		mk(1, 2, 8, true),
		mk(1, 4, 8, true),
		mk(2, 1, 8, true),
		mk(2, 2, 8, true),
		mk(2, 4, 8, true),
		mk(3, 4, 6, true),
		mk(4, 1, 8, true),
		mk(4, 2, 8, true),
		mk(4, 4, 8, true),
		mk(6, 4, 6, true),
		mk(8, 2, 8, true),
		mk(8, 4, 8, true),
		mk(8, 4, 8, false), // the second 8Nx4P point: no overlap
	}
}

// RunFigure2 simulates every Figure 2 point.
func RunFigure2(iters int) ([]SORPoint, error) {
	if iters <= 0 {
		iters = 25
	}
	var out []SORPoint
	for _, cfg := range Figure2Configs(iters) {
		pt, err := SimulateSOR(cfg)
		if err != nil {
			return nil, fmt.Errorf("perf: %dNx%dP: %w", cfg.Nodes, cfg.ProcsPerNode, err)
		}
		out = append(out, pt)
	}
	return out, nil
}

// Figure3Configs returns the problem-size sweep of Figure 3: the 4N×4P
// configuration over grids from a few thousand points to several times the
// Figure 2 grid (whose point is marked "X" in the paper).
func Figure3Configs(iters int) []SORConfig {
	var out []SORConfig
	for _, f := range []float64{1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1, 2, 4} {
		scale := math.Sqrt(f)
		rows := int(math.Round(PaperGridRows * scale))
		cols := int(math.Round(PaperGridCols * scale))
		if rows < 12 {
			rows = 12
		}
		if cols < 12 {
			cols = 12
		}
		out = append(out, SORConfig{
			Nodes: 4, ProcsPerNode: 4, Sections: 8,
			Rows: rows, Cols: cols, Iters: iters, Overlap: true, Model: CVAX1989,
		})
	}
	return out
}

// RunFigure3 simulates every Figure 3 point.
func RunFigure3(iters int) ([]SORPoint, error) {
	if iters <= 0 {
		iters = 25
	}
	var out []SORPoint
	for _, cfg := range Figure3Configs(iters) {
		pt, err := SimulateSOR(cfg)
		if err != nil {
			return nil, fmt.Errorf("perf: %dx%d: %w", cfg.Rows, cfg.Cols, err)
		}
		out = append(out, pt)
	}
	return out, nil
}

// --- text rendering ---

func msf(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d)/float64(time.Millisecond)) }

// FormatTable1 renders the Table 1 reproduction.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: Latency of Amber Operations (paper vs this runtime under the 1989 profile)\n")
	fmt.Fprintf(&b, "%-24s %14s %14s %8s\n", "operation", "paper (ms)", "measured (ms)", "ratio")
	for _, r := range rows {
		ratio := float64(r.Measured) / float64(r.Paper)
		fmt.Fprintf(&b, "%-24s %14s %14s %7.2fx\n", r.Operation, msf(r.Paper), msf(r.Measured), ratio)
	}
	return b.String()
}

// FormatSOR renders Figure 2/3 points as the series the paper plots.
func FormatSOR(title string, pts []SORPoint, showSize bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	if showSize {
		fmt.Fprintf(&b, "%-14s %10s %12s %12s %9s %8s\n",
			"config", "points", "seq (s)", "par (s)", "speedup", "msgs")
	} else {
		fmt.Fprintf(&b, "%-22s %12s %12s %9s %9s %8s %7s\n",
			"config", "seq (s)", "par (s)", "speedup", "ideal", "msgs", "util")
	}
	for _, p := range pts {
		if showSize {
			fmt.Fprintf(&b, "%-14s %10d %12.3f %12.3f %9.2f %8d\n",
				p.Label(),
				(p.Config.Rows-2)*(p.Config.Cols-2),
				p.Seq.Seconds(), p.Parallel.Seconds(), p.Speedup, p.Messages)
		} else {
			ideal := p.Config.Nodes * p.Config.ProcsPerNode
			fmt.Fprintf(&b, "%-22s %12.3f %12.3f %9.2f %9d %8d %6.0f%%\n",
				p.Label(), p.Seq.Seconds(), p.Parallel.Seconds(), p.Speedup, ideal, p.Messages,
				100*p.Utilization)
		}
	}
	return b.String()
}

// FormatCompare renders a §4 comparison.
func FormatCompare(title string, rows []CompareRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-44s %8s %10s %12s %14s\n", "system", "msgs", "KB", "model (ms)", "per unit (ms)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-44s %8d %10.1f %12s %14s   # %s\n",
			r.System, r.Msgs, float64(r.Bytes)/1024, msf(r.Model), msf(r.PerUnit), r.Footnote)
	}
	return b.String()
}

// FormatChains renders the forwarding-chain ablation.
func FormatChains(rows []ChainRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E8: forwarding chains and chain caching (§3.3)\n")
	fmt.Fprintf(&b, "%6s %10s %8s %8s %8s %10s %10s %8s %9s %10s\n",
		"hops", "1st msgs", "1st fwd", "1st upd", "1st prb", "1st (ms)", "2nd msgs", "2nd fwd", "hint hit", "2nd (ms)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %10d %8d %8d %8d %10s %10d %8d %9d %10s\n",
			r.Hops, r.FirstMsgs, r.FirstFwd, r.FirstUpdates, r.FirstProbes, msf(r.FirstTime),
			r.SecondMsgs, r.SecondFwd, r.HintHits, msf(r.SecondTime))
	}
	return b.String()
}

// FormatMobility renders the attachment/immutability ablation.
func FormatMobility(rows []MobilityRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E9: attachment and immutable replication (§2.3)\n")
	fmt.Fprintf(&b, "%-48s %8s %10s %12s\n", "variant", "msgs", "KB", "model (ms)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-48s %8d %10.1f %12s   # %s\n",
			r.Variant, r.Msgs, float64(r.Bytes)/1024, msf(r.Model), r.Note)
	}
	return b.String()
}
