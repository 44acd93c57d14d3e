package stats

import (
	"fmt"
	"io"
	"strings"

	"popelect/internal/atomicfile"
)

// WriteTableCSV writes a simple rectangular table as CSV: one header line,
// then one line per row. Every row must have len(header) cells. Cells
// containing commas or quotes are quoted.
func WriteTableCSV(w io.Writer, header []string, rows [][]string) error {
	if len(header) == 0 {
		return fmt.Errorf("stats: CSV table without columns")
	}
	writeLine := func(cells []string) error {
		if len(cells) != len(header) {
			return fmt.Errorf("stats: CSV row with %d cells for %d columns", len(cells), len(header))
		}
		for i, c := range cells {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			if _, err := io.WriteString(w, c); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := writeLine(header); err != nil {
		return err
	}
	for _, r := range rows {
		if err := writeLine(r); err != nil {
			return err
		}
	}
	return nil
}

// WriteTableCSVFile writes a table as CSV to path, creating the parent
// directory as needed.
func WriteTableCSVFile(path string, header []string, rows [][]string) error {
	return atomicfile.Write(path, func(w io.Writer) error { return WriteTableCSV(w, header, rows) })
}
