// Package experiments implements the reproduction harness: one runner per
// paper artifact (Figure 1 and the quantitative claims of Sections 1, 3
// and 5) and per cluster-scope quantity the repo adds, each returning a
// formatted table. Index (index.go) is the one list of them: cmd/otpbench
// runs and prints its entries, DESIGN.md §4 documents them row for row,
// and bench_test.go wraps some of the same cells in testing.B benchmarks.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	// Title names the experiment and the paper artifact it reproduces.
	Title string
	// Columns are the header cells.
	Columns []string
	// Rows are the data cells, one slice per row.
	Rows [][]string
	// Notes are printed under the table (parameters, interpretation).
	Notes []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table in aligned plain text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
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
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
			} else {
				parts[i] = cell
			}
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders to a string (handy in tests).
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}
