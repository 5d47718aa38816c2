package stats

import (
	"fmt"
	"strings"
)

// Table renders aligned plain-text tables. Every figure and experiment in
// this reproduction reports its results through a Table so terminal output
// lines up with the rows the paper prints.
type Table struct {
	title   string
	headers []string
	rows    [][]string
	notes   []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row. Cells beyond the header count are kept and widen the
// table; missing cells render empty.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// AddNote attaches a footnote line rendered after the table body.
func (t *Table) AddNote(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// String renders the table.
func (t *Table) String() string {
	ncols := len(t.headers)
	for _, r := range t.rows {
		if len(r) > ncols {
			ncols = len(r)
		}
	}
	widths := make([]int, ncols)
	for i, h := range t.headers {
		if len(h) > widths[i] {
			widths[i] = len(h)
		}
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "%s\n", t.title)
	}
	line := func(cells []string) {
		for i := 0; i < ncols; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	if len(t.headers) > 0 {
		line(t.headers)
		seps := make([]string, ncols)
		for i := range seps {
			seps[i] = strings.Repeat("-", widths[i])
		}
		line(seps)
	}
	for _, r := range t.rows {
		line(r)
	}
	for _, n := range t.notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}
