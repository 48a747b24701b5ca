// Package experiments regenerates every experiment table and figure: the
// paper's claims recast as measurable series, each Table stating the
// predicted shape beside the measured rows. Each generator builds its
// workloads through internal/harness, so the CLI (cmd/experiments), the
// root benchmarks (bench_test.go), and the tests all run identical code.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Table is one rendered experiment: an ID, the paper's predicted shape, and
// the measured rows.
type Table struct {
	// ID is the experiment identifier ("Table 1", "Figure 1", ...).
	ID string
	// Title is a one-line description.
	Title string
	// Claim restates the paper's prediction for this experiment.
	Claim string
	// Columns are the column headers.
	Columns []string
	// Rows hold the measured data, one cell per column.
	Rows [][]string
	// Notes carries methodology remarks (seeds, parameters).
	Notes string
}

// Markdown renders the table as a GitHub-flavoured markdown section.
func (t Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&b, "**Paper's prediction**: %s\n\n", t.Claim)
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.Columns, " | "))
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(sep, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(row, " | "))
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "\n*%s*\n", t.Notes)
	}
	return b.String()
}

// String renders a plain-text view for terminals.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// inDelta formats a duration as a multiple of δ with two decimals.
func inDelta(d, delta time.Duration) string {
	return fmt.Sprintf("%.2fδ", float64(d)/float64(delta))
}

// medianOf returns the median of the (non-empty) sample set.
func medianOf(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(samples))
	copy(sorted, samples)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[len(sorted)/2]
}

// maxOf returns the maximum of the sample set.
func maxOf(samples []time.Duration) time.Duration {
	var best time.Duration
	for _, s := range samples {
		if s > best {
			best = s
		}
	}
	return best
}
