package experiments

import (
	"fmt"
	"strings"
	"unicode/utf8"
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

// wrap breaks s at spaces into lines of at most width runes, filling
// each line greedily, and ends every line with a newline.
func wrap(s string, width int) string {
	var b strings.Builder
	n := 0
	for _, w := range strings.Fields(s) {
		l := utf8.RuneCountInString(w)
		if n > 0 && n+1+l > width {
			b.WriteByte('\n')
			n = 0
		} else if n > 0 {
			b.WriteByte(' ')
			n++
		}
		b.WriteString(w)
		n += l
	}
	b.WriteByte('\n')
	return b.String()
}
