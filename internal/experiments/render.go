package experiments

import (
	"fmt"
	"strings"
)

// table is a minimal text-table builder for experiment reports.
type table struct {
	title   string
	headers []string
	rows    [][]string
}

func newTable(title string, headers ...string) *table {
	return &table{title: title, headers: headers}
}

func (t *table) add(cells ...string) {
	t.rows = append(t.rows, cells)
}

func (t *table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title + "\n")
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s", w, c)
		}
		b.WriteString("\n")
	}
	line(t.headers)
	total := len(widths)*2 - 2
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total) + "\n")
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}
