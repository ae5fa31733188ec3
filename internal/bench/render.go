package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
)

// RenderFig1a writes the scaling sweep as a table plus an ASCII
// series, in the spirit of the paper's Figure 1a.
func RenderFig1a(w io.Writer, res Fig1aResult, ramBytes int64) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "size\truntime (s)\tdisk util\tcpu util\tregime")
	var maxSec float64
	for _, p := range res.Points {
		if p.Seconds > maxSec {
			maxSec = p.Seconds
		}
	}
	for _, p := range res.Points {
		regime := "in-RAM"
		if p.SizeBytes > ramBytes {
			regime = "out-of-core"
		}
		fmt.Fprintf(tw, "%dG\t%.0f\t%.0f%%\t%.0f%%\t%s\n",
			p.SizeBytes/1e9, p.Seconds, p.Util.DiskPercent(), p.Util.CPUPercent(), regime)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w)
	// ASCII bar series.
	for _, p := range res.Points {
		bar := 0
		switch {
		case p.Seconds < maxSec:
			bar = int(50 * p.Seconds / maxSec)
		case maxSec > 0:
			bar = 50 // the longest: 50·s/s can round to 49.999…
		}
		marker := " "
		if p.SizeBytes > ramBytes {
			marker = "*" // out-of-core
		}
		fmt.Fprintf(w, "%4dG |%s%s %.0fs\n", p.SizeBytes/1e9, strings.Repeat("#", bar), marker, p.Seconds)
	}
	fmt.Fprintf(w, "\nfit: %s\n", res.Model)
	return nil
}

// RenderFig1b writes the comparison table of Figure 1b with the
// paper's reference numbers alongside.
func RenderFig1b(w io.Writer, rows []Fig1bRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "algorithm\tsystem\truntime (s)\tx of M3\tpaper (s)\tpaper x of M3")
	for _, r := range rows {
		paperRatio := 0.0
		if m3 := PaperFig1bSeconds[r.Algorithm]["M3"]; m3 > 0 {
			paperRatio = r.PaperSeconds / m3
		}
		fmt.Fprintf(tw, "%s\t%s\t%.0f\t%.2f\t%.0f\t%.2f\n",
			r.Algorithm, r.System, r.Seconds, r.RatioToM3, r.PaperSeconds, paperRatio)
	}
	return tw.Flush()
}

// RenderReports writes a generic named-runtimes table sorted by name.
func RenderReports(w io.Writer, reports map[string]Report) error {
	names := make([]string, 0, len(reports))
	for n := range reports {
		names = append(names, n)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "config\truntime (s)\tpasses\tdisk util\tcpu util")
	for _, n := range names {
		r := reports[n]
		fmt.Fprintf(tw, "%s\t%.0f\t%d\t%.0f%%\t%.0f%%\n",
			n, r.Seconds, r.Passes, r.Util.DiskPercent(), r.Util.CPUPercent())
	}
	return tw.Flush()
}

// RenderEnergy writes the energy comparison table.
func RenderEnergy(w io.Writer, rows []EnergyRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "system\truntime (s)\tenergy (kWh)\tx of M3")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.0f\t%.3f\t%.1f\n", r.System, r.Seconds, r.KWh, r.RatioToM3)
	}
	return tw.Flush()
}

// RenderMultiCore writes the workers × size sweep grouped by size, so
// each group reads as "what did extra cores buy at this scale".
func RenderMultiCore(w io.Writer, points []MultiCorePoint, ramBytes int64) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "size\tworkers\truntime (s)\tcpu util\tdisk util\tspeedup\tregime")
	var lastSize int64 = -1
	for _, p := range points {
		if lastSize >= 0 && p.SizeBytes != lastSize {
			fmt.Fprintln(tw, "\t\t\t\t\t\t")
		}
		lastSize = p.SizeBytes
		regime := "in-RAM"
		if p.SizeBytes > ramBytes {
			regime = "out-of-core"
		}
		fmt.Fprintf(tw, "%dG\t%d\t%.0f\t%.0f%%\t%.0f%%\t%.2fx\t%s\n",
			p.SizeBytes/1e9, p.Workers, p.Seconds,
			100*p.CPUUtil, 100*p.DiskUtil, p.Speedup, regime)
	}
	return tw.Flush()
}

// RenderPredict writes the prediction-vs-actual table.
func RenderPredict(w io.Writer, points []PredictPoint) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "size\tpredicted (s)\tactual (s)\terror")
	for _, p := range points {
		errPct := 0.0
		if p.Actual > 0 {
			errPct = 100 * (p.Predicted - p.Actual) / p.Actual
		}
		fmt.Fprintf(tw, "%dG\t%.0f\t%.0f\t%+.1f%%\n", p.SizeBytes/1e9, p.Predicted, p.Actual, errPct)
	}
	return tw.Flush()
}
