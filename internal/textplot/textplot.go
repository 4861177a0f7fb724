// Package textplot renders the reproduction's tables and figures as plain
// text: aligned tables with CSV export, horizontal bar charts for the
// paper's bar figures (Figs. 8, 9) and line charts for its curve figures
// (Figs. 5b, 7).
package textplot

import (
	"fmt"
	"math"
	"strings"
)

// Table is a titled grid of cells with optional footnotes.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row of cells (stringified with %v).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns, an underlined title and
// footnotes.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title + "\n")
		b.WriteString(strings.Repeat("=", len(t.Title)) + "\n")
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(c, widths[i]))
		}
		b.WriteString("\n")
	}
	if len(t.Header) > 0 {
		writeRow(t.Header)
		total := 0
		for _, w := range widths {
			total += w + 2
		}
		b.WriteString(strings.Repeat("-", max(total-2, 1)) + "\n")
	}
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		b.WriteString("note: " + n + "\n")
	}
	return b.String()
}

// CSV renders the table as comma-separated values (header then rows); cells
// containing commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString(",")
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteString("\n")
	}
	if len(t.Header) > 0 {
		writeRow(t.Header)
	}
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// pad right-pads s to width w.
func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Series is one named sequence of y-values for charts.
type Series struct {
	Name   string
	Values []float64
}

// GroupedBars renders one bar per (category, series) pair, grouping bars of
// the same category together — the layout of the paper's Figs. 8 and 9.
func GroupedBars(title string, categories []string, series []Series, width int) string {
	if width < 8 {
		width = 8
	}
	var b strings.Builder
	if title != "" {
		b.WriteString(title + "\n")
	}
	catW, nameW, maxV := 0, 0, 0.0
	for _, c := range categories {
		if len(c) > catW {
			catW = len(c)
		}
	}
	for _, s := range series {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
		for _, v := range s.Values {
			if v > maxV {
				maxV = v
			}
		}
	}
	for ci, c := range categories {
		for si, s := range series {
			v := 0.0
			if ci < len(s.Values) {
				v = s.Values[ci]
			}
			n := 0
			if maxV > 0 {
				n = int(math.Round(v / maxV * float64(width)))
			}
			label := pad(c, catW)
			if si > 0 {
				label = strings.Repeat(" ", catW)
			}
			fmt.Fprintf(&b, "%s %s | %s %.3g\n",
				label, pad(s.Name, nameW), strings.Repeat("#", n), v)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// markers distinguish series in Line charts.
var markers = []byte{'*', 'o', '+', 'x', '@', '%'}

// Line renders series as an ASCII scatter/line chart over the given x-axis
// labels (one column group per x position), with a legend.
func Line(title string, xLabels []string, series []Series, height int) string {
	if height < 4 {
		height = 4
	}
	var b strings.Builder
	if title != "" {
		b.WriteString(title + "\n")
	}
	maxV, minV := math.Inf(-1), math.Inf(1)
	for _, s := range series {
		for _, v := range s.Values {
			maxV = math.Max(maxV, v)
			minV = math.Min(minV, v)
		}
	}
	if math.IsInf(maxV, -1) {
		return b.String()
	}
	if maxV == minV {
		maxV = minV + 1
	}
	colW := 4
	for _, l := range xLabels {
		if len(l)+1 > colW {
			colW = len(l) + 1
		}
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", colW*len(xLabels)))
	}
	for si, s := range series {
		mk := markers[si%len(markers)]
		for xi, v := range s.Values {
			if xi >= len(xLabels) {
				break
			}
			row := int(math.Round((maxV - v) / (maxV - minV) * float64(height-1)))
			grid[row][xi*colW] = mk
		}
	}
	for r, line := range grid {
		y := maxV - (maxV-minV)*float64(r)/float64(height-1)
		fmt.Fprintf(&b, "%8.3g |%s\n", y, string(line))
	}
	b.WriteString(strings.Repeat(" ", 9) + "+" + strings.Repeat("-", colW*len(xLabels)) + "\n")
	b.WriteString(strings.Repeat(" ", 10))
	for _, l := range xLabels {
		b.WriteString(pad(l, colW))
	}
	b.WriteString("\n")
	for si, s := range series {
		fmt.Fprintf(&b, "  %c = %s\n", markers[si%len(markers)], s.Name)
	}
	return b.String()
}
