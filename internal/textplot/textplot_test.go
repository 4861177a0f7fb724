package textplot

import (
	"strings"
	"testing"
)

func TestTableString(t *testing.T) {
	tb := &Table{
		Title:  "T",
		Header: []string{"layer", "cycles"},
		Notes:  []string{"hello"},
	}
	tb.AddRow("conv1", 1431)
	tb.AddRow("conv2-long-name", 22)
	s := tb.String()
	if !strings.Contains(s, "T\n=\n") {
		t.Errorf("missing underlined title:\n%s", s)
	}
	if !strings.Contains(s, "conv2-long-name") || !strings.Contains(s, "1431") {
		t.Errorf("missing cells:\n%s", s)
	}
	if !strings.Contains(s, "note: hello") {
		t.Errorf("missing note:\n%s", s)
	}
	lines := strings.Split(s, "\n")
	// Header and data rows align: "cycles" column starts at the same
	// offset in both rows.
	var headerLine, row1 string
	for i, l := range lines {
		if strings.HasPrefix(l, "layer") {
			headerLine = l
			row1 = lines[i+2]
		}
	}
	if strings.Index(headerLine, "cycles") != strings.Index(row1, "1431") {
		t.Errorf("columns misaligned:\n%s", s)
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{Header: []string{"a", "b"}}
	tb.AddRow("x,y", `quote"inside`)
	tb.AddRow(1, 2.5)
	csv := tb.CSV()
	want := "a,b\n\"x,y\",\"quote\"\"inside\"\n1,2.5\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}

func TestGroupedBars(t *testing.T) {
	s := GroupedBars("g", []string{"l1", "l2"}, []Series{
		{Name: "im2col", Values: []float64{1, 1}},
		{Name: "vw", Values: []float64{4, 2}},
	}, 8)
	if !strings.Contains(s, "l1 im2col") {
		t.Errorf("category+series label missing:\n%s", s)
	}
	if !strings.Contains(s, "vw     | ######## 4") {
		t.Errorf("scaled bar missing:\n%s", s)
	}
	// Series shorter than categories must not panic.
	s = GroupedBars("", []string{"a", "b"}, []Series{{Name: "s", Values: []float64{1}}}, 8)
	if !strings.Contains(s, "b") {
		t.Errorf("missing category:\n%s", s)
	}
}

func TestLine(t *testing.T) {
	s := Line("fig", []string{"7", "14", "28"}, []Series{
		{Name: "sq", Values: []float64{1, 1, 2}},
		{Name: "rect", Values: []float64{1, 2, 3}},
	}, 6)
	if !strings.Contains(s, "fig") || !strings.Contains(s, "* = sq") || !strings.Contains(s, "o = rect") {
		t.Errorf("legend missing:\n%s", s)
	}
	if !strings.Contains(s, "14") {
		t.Errorf("x labels missing:\n%s", s)
	}
	if strings.Count(s, "o") < 3 { // 3 points + legend
		t.Errorf("series points missing:\n%s", s)
	}
}

func TestLineDegenerate(t *testing.T) {
	if s := Line("t", nil, nil, 5); !strings.Contains(s, "t") {
		t.Errorf("empty chart should still carry title: %q", s)
	}
	// Constant series must not divide by zero.
	s := Line("c", []string{"1", "2"}, []Series{{Name: "k", Values: []float64{5, 5}}}, 5)
	if !strings.Contains(s, "k") {
		t.Errorf("constant series missing:\n%s", s)
	}
}

func TestSmallWidthsClamped(t *testing.T) {
	if s := GroupedBars("", []string{"a"}, []Series{{Name: "s", Values: []float64{1}}}, 0); !strings.Contains(s, "########") {
		t.Errorf("grouped width clamp failed:\n%s", s)
	}
	if s := Line("", []string{"x"}, []Series{{Name: "s", Values: []float64{1}}}, 0); s == "" {
		t.Error("line height clamp failed")
	}
}
