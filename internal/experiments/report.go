// Package experiments implements the reproduction harness: one function
// per experiment in DESIGN.md's per-experiment index (E1–E13), each
// regenerating a table or figure-level claim from the paper and
// returning a formatted report of paper-claim vs measured values.
// cmd/benchrunner prints these; bench_test.go times their cores.
package experiments

import (
	"fmt"
	"strings"
)

// Report is one regenerated experiment.
type Report struct {
	ID         string
	Title      string
	PaperClaim string
	Header     []string
	Rows       [][]string
	Notes      []string
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cols ...string) {
	r.Rows = append(r.Rows, cols)
}

// AddNote appends a free-form observation.
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Format renders the report as an aligned text table.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s — %s ===\n", r.ID, r.Title)
	if r.PaperClaim != "" {
		fmt.Fprintf(&b, "paper: %s\n", r.PaperClaim)
	}
	if len(r.Header) > 0 {
		widths := make([]int, len(r.Header))
		for i, h := range r.Header {
			widths[i] = len(h)
		}
		for _, row := range r.Rows {
			for i, c := range row {
				if i < len(widths) && len(c) > widths[i] {
					widths[i] = len(c)
				}
			}
		}
		writeRow := func(cols []string) {
			for i, c := range cols {
				if i > 0 {
					b.WriteString("  ")
				}
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			}
			b.WriteByte('\n')
		}
		writeRow(r.Header)
		sep := make([]string, len(r.Header))
		for i, w := range widths {
			sep[i] = strings.Repeat("-", w)
		}
		writeRow(sep)
		for _, row := range r.Rows {
			writeRow(row)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// f formats a float at 3 decimals.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// f1d formats a float at 1 decimal.
func f1d(v float64) string { return fmt.Sprintf("%.1f", v) }
