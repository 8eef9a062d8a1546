package experiments

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tab := newTable("Title", "col1", "column-two")
	tab.add("a", "1")
	tab.add("longer-cell", "2")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "Title" {
		t.Errorf("first line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "col1") || !strings.Contains(lines[1], "column-two") {
		t.Errorf("header line = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "---") {
		t.Errorf("separator line = %q", lines[2])
	}
	// Columns align: "1" and "2" start at the same offset.
	if strings.Index(lines[3], "1") != strings.Index(lines[4], "2") {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestTableTolerant(t *testing.T) {
	// Rows with more cells than headers must not panic.
	tab := newTable("t", "only")
	tab.add("a", "b", "c")
	if out := tab.String(); !strings.Contains(out, "a") {
		t.Errorf("render = %q", out)
	}
}
