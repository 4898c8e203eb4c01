package tableparse_test

import (
	"testing"

	"covidkg/internal/cord19"
	"covidkg/internal/tableparse"
)

// FuzzParseTables feeds raw HTML — what CORD-19 bodies carry, malformed
// as they often are — through ParseTables: it must not panic, every
// table it returns must be rectangular, and every markup header index
// must name one of the table's rows.
func FuzzParseTables(f *testing.F) {
	for _, p := range cord19.NewGenerator(3).Corpus(6) {
		for _, t := range p.Tables {
			f.Add(t.HTML)
		}
	}
	f.Add(`<table><tr><td>A<td>B<tr><td>C<td>D`)
	f.Add(`<table><thead><tr><th rowspan="3" colspan="2">H</th></thead><tbody><tr><td>x</td></tr></table>`)
	f.Add(`<table><caption>c<table><tr><td rowspan=64>a</td></tr></table></tr></td>`)
	f.Add(`<td>orphan</td><tr><th>no table</th></tr><table><!-- unclosed`)
	f.Fuzz(func(t *testing.T, src string) {
		tables, err := tableparse.ParseTables(src)
		if err != nil {
			return
		}
		for i, tb := range tables {
			w := tb.NumCols()
			for r, row := range tb.Rows {
				if len(row) != w {
					t.Fatalf("table %d row %d has %d cells, table is %d wide", i, r, len(row), w)
				}
			}
			for _, h := range tb.MarkupHeaderRows {
				if h < 0 || h >= tb.NumRows() {
					t.Fatalf("table %d: header row %d of %d rows", i, h, tb.NumRows())
				}
			}
		}
	})
}
