package stats

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows of string cells and renders them column-aligned
// or as CSV. Experiment runners use it to print paper-style tables.
type Table struct {
	Header []string
	Rows   [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{Header: header} }

// AddRow appends a row. Cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// WriteTo renders the table column-aligned to w.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var total int64
	writeRow := func(cells []string) error {
		var sb strings.Builder
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		n, err := io.WriteString(w, strings.TrimRight(sb.String(), " ")+"\n")
		total += int64(n)
		return err
	}
	if err := writeRow(t.Header); err != nil {
		return total, err
	}
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := writeRow(sep); err != nil {
		return total, err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return total, err
		}
	}
	return total, nil
}

// String renders the aligned table.
func (t *Table) String() string {
	var sb strings.Builder
	if _, err := t.WriteTo(&sb); err != nil {
		return err.Error()
	}
	return sb.String()
}

// WriteCSV renders the table as CSV to w.
func (t *Table) WriteCSV(w io.Writer) error {
	writeLine := func(cells []string) error {
		for i, c := range cells {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			if _, err := io.WriteString(w, c); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := writeLine(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeLine(row); err != nil {
			return err
		}
	}
	return nil
}
