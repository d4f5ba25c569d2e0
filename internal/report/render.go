package report

import (
	"fmt"
	"strings"
)

// A Section is what an experiment returns: its banner, then its tables
// and notes in print order. Numbers stay numbers until String renders
// them — with Table.String and Cell.String the only code that formats
// a value — and Value reads any of them back.
type Section struct {
	ID, Title string
	Parts     []Part
}

// A Part is a table or, when Table is nil, a note: prose printed as
// fmt.Sprintf(Format, Args...), where a Cell prints as in a table.
type Part struct {
	Table  *Table
	Format string
	Args   []any
}

// A Table is a label column plus value columns, printed with aligned
// widths and a rule under the header — or, when Legend is set, the
// legend ending the header line and no rule (the storage layout).
type Table struct {
	Header []string
	Rows   []Row
	Legend string
}

// A Row is a row label and its value cells.
type Row struct {
	Label string
	Cells []Cell
}

// A Cell is a value cell: its numbers, unformatted, and how they print.
// Format takes one float64 verb per value (%.0f prints a count); one
// without verbs is a fixed mark such as "-".
type Cell struct {
	Vals   []float64
	Format string
	Style  Style
}

// Style selects how a cell applies its Format.
type Style uint8

const (
	Plain    Style = iota // fmt.Sprintf(Format, Vals...)
	DashZero              // "-" for a zero (an event that never happens), else Plain
	VsPaper               // "measured | paper": Vals[0] as DashZero, Vals[1] to two places
	Bar                   // one '#' per 2% of Vals[0] (Figure 1's histogram)
)

func (c Cell) String() string {
	switch c.Style {
	case DashZero:
		if c.Vals[0] == 0 {
			return "-"
		}
	case VsPaper:
		return Cell{c.Vals[:1], c.Format, DashZero}.String() + fmt.Sprintf(" | %.2f", c.Vals[1])
	case Bar:
		return strings.Repeat("#", int(c.Vals[0]/2))
	}
	args := make([]any, len(c.Vals))
	for i, v := range c.Vals {
		args[i] = v
	}
	return fmt.Sprintf(c.Format, args...)
}

// String renders the section: the banner, then every part in order.
func (s *Section) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", s.ID, s.Title)
	for _, p := range s.Parts {
		if p.Table != nil {
			b.WriteString(p.Table.String())
		} else {
			fmt.Fprintf(&b, p.Format, p.Args...)
		}
	}
	return b.String()
}

// table appends a table to the section and returns it for its rows.
func (s *Section) table(label string, cols ...string) *Table {
	t := &Table{Header: append([]string{label}, cols...)}
	s.Parts = append(s.Parts, Part{Table: t})
	return t
}

// note appends prose to the section.
func (s *Section) note(format string, args ...any) {
	s.Parts = append(s.Parts, Part{Format: format, Args: args})
}

func (t *Table) row(label string, cells ...Cell) {
	t.Rows = append(t.Rows, Row{Label: label, Cells: cells})
}

func (t *Table) String() string {
	text := [][]string{t.Header}
	for _, r := range t.Rows {
		line := []string{r.Label}
		for _, c := range r.Cells {
			line = append(line, c.String())
		}
		text = append(text, line)
	}
	widths, total := make([]int, len(t.Header)), -2
	for _, line := range text {
		for i, s := range line {
			widths[i] = max(widths[i], len(s))
		}
	}
	for _, w := range widths {
		total += w + 2
	}
	var b strings.Builder
	for n, line := range text {
		fmt.Fprintf(&b, "%-*s", widths[0], line[0])
		for i, s := range line[1:] {
			fmt.Fprintf(&b, "  %*s", widths[i+1], s)
		}
		if n == 0 && t.Legend != "" {
			b.WriteString("  " + t.Legend)
		}
		b.WriteByte('\n')
		if n == 0 && t.Legend == "" {
			b.WriteString(strings.Repeat("-", total) + "\n")
		}
	}
	return b.String()
}

// num is a Plain cell.
func num(format string, vals ...float64) Cell { return Cell{Vals: vals, Format: format} }

// cyc is a cycles-per-reference cell.
func cyc(v float64) Cell { return num("%.4f", v) }

// count is an integer cell.
func count[T int | int64](n T) Cell { return num("%.0f", float64(n)) }

// pct is an event-frequency cell: two places, "-" for zero.
func pct(v float64) Cell { return Cell{[]float64{v}, "%.2f", DashZero} }

// none marks a cell with no value, such as a published one the paper
// does not give.
var none = num("-")
