// Package tableparse converts raw HTML table fragments — as found in
// CORD-19 publication bodies — into clean, semi-structured JSON tables
// (§3.1 of the paper). The parser is deliberately tolerant: CORD-19
// fragments contain unclosed tags, stray markup, entities, and
// rowspan/colspan attributes, and the goal is extraction, not validation.
package tableparse

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"covidkg/internal/jsondoc"
)

// Table is a parsed table: a caption, a rectangular cell grid, and the
// indexes of rows the markup itself declared as headers (<th> cells or
// rows inside <thead>). Header declarations in real-world HTML are
// unreliable — that is exactly why the paper trains classifiers to locate
// metadata rows — so MarkupHeaderRows is a hint, not ground truth.
type Table struct {
	Caption          string
	Rows             [][]string
	MarkupHeaderRows []int
}

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return len(t.Rows) }

// NumCols returns the width of the widest row.
func (t *Table) NumCols() int {
	max := 0
	for _, r := range t.Rows {
		if len(r) > max {
			max = len(r)
		}
	}
	return max
}

// Row returns row i, or nil when out of range.
func (t *Table) Row(i int) []string {
	if i < 0 || i >= len(t.Rows) {
		return nil
	}
	return t.Rows[i]
}

// IsMarkupHeader reports whether the markup declared row i a header row.
func (t *Table) IsMarkupHeader(i int) bool {
	for _, h := range t.MarkupHeaderRows {
		if h == i {
			return true
		}
	}
	return false
}

// Doc converts the table to its JSON document form, the shape stored in
// the document store and searched by the table search engine.
func (t *Table) Doc() jsondoc.Doc {
	rows := make([]any, len(t.Rows))
	for i, r := range t.Rows {
		cells := make([]any, len(r))
		for j, c := range r {
			cells[j] = c
		}
		rows[i] = cells
	}
	headers := make([]any, len(t.MarkupHeaderRows))
	for i, h := range t.MarkupHeaderRows {
		headers[i] = float64(h)
	}
	return jsondoc.Doc{
		"caption":     t.Caption,
		"rows":        rows,
		"header_rows": headers,
		"n_rows":      float64(t.NumRows()),
		"n_cols":      float64(t.NumCols()),
	}
}

// TableFromDoc reconstructs a Table from its document form, dropping
// header_rows entries that name no row (documents are outside input).
func TableFromDoc(d jsondoc.Doc) *Table {
	t := &Table{Caption: d.GetString("caption")}
	for _, rv := range d.GetArray("rows") {
		ra, _ := rv.([]any)
		row := make([]string, len(ra))
		for j, cv := range ra {
			row[j], _ = cv.(string)
		}
		t.Rows = append(t.Rows, row)
	}
	for _, hv := range d.GetArray("header_rows") {
		if f, ok := hv.(float64); ok && f >= 0 && f < float64(len(t.Rows)) && f == math.Trunc(f) {
			t.MarkupHeaderRows = append(t.MarkupHeaderRows, int(f))
		}
	}
	return t
}

// token kinds produced by the lexer.
type tokKind int

const (
	tokText tokKind = iota
	tokOpen
	tokClose
	tokSelfClose
)

type htmlToken struct {
	kind  tokKind
	name  string            // tag name, lowercased (open/close)
	attrs map[string]string // open tags only
	text  string            // text tokens only
}

// lexHTML tokenizes an HTML fragment into tags and text. Comments and
// processing instructions are skipped. Malformed tags are treated as text.
func lexHTML(src string) []htmlToken {
	var out []htmlToken
	i := 0
	for i < len(src) {
		lt := strings.IndexByte(src[i:], '<')
		if lt < 0 {
			out = append(out, htmlToken{kind: tokText, text: src[i:]})
			break
		}
		lt += i
		if lt > i {
			out = append(out, htmlToken{kind: tokText, text: src[i:lt]})
		}
		// comment?
		if strings.HasPrefix(src[lt:], "<!--") {
			end := strings.Index(src[lt+4:], "-->")
			if end < 0 {
				break
			}
			i = lt + 4 + end + 3
			continue
		}
		gt := strings.IndexByte(src[lt:], '>')
		if gt < 0 {
			// dangling '<': treat the rest as text
			out = append(out, htmlToken{kind: tokText, text: src[lt:]})
			break
		}
		gt += lt
		tag := src[lt+1 : gt]
		i = gt + 1
		tag = strings.TrimSpace(tag)
		if tag == "" || tag[0] == '!' || tag[0] == '?' {
			continue
		}
		if tag[0] == '/' {
			name := strings.ToLower(strings.TrimSpace(tag[1:]))
			out = append(out, htmlToken{kind: tokClose, name: name})
			continue
		}
		selfClose := strings.HasSuffix(tag, "/")
		if selfClose {
			tag = strings.TrimSpace(tag[:len(tag)-1])
		}
		name, attrs := parseTag(tag)
		k := tokOpen
		if selfClose {
			k = tokSelfClose
		}
		out = append(out, htmlToken{kind: k, name: name, attrs: attrs})
	}
	return out
}

// parseTag splits "td colspan=2 class='x'" into name and attribute map.
func parseTag(tag string) (string, map[string]string) {
	i := 0
	for i < len(tag) && !isSpace(tag[i]) {
		i++
	}
	name := strings.ToLower(tag[:i])
	attrs := map[string]string{}
	for i < len(tag) {
		for i < len(tag) && isSpace(tag[i]) {
			i++
		}
		start := i
		for i < len(tag) && tag[i] != '=' && !isSpace(tag[i]) {
			i++
		}
		key := strings.ToLower(tag[start:i])
		if key == "" {
			break
		}
		val := ""
		if i < len(tag) && tag[i] == '=' {
			i++
			if i < len(tag) && (tag[i] == '"' || tag[i] == '\'') {
				q := tag[i]
				i++
				vstart := i
				for i < len(tag) && tag[i] != q {
					i++
				}
				val = tag[vstart:i]
				if i < len(tag) {
					i++
				}
			} else {
				vstart := i
				for i < len(tag) && !isSpace(tag[i]) {
					i++
				}
				val = tag[vstart:i]
			}
		}
		attrs[key] = val
	}
	return name, attrs
}

func isSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\n' || b == '\r' }

var entities = map[string]string{
	"amp": "&", "lt": "<", "gt": ">", "quot": `"`, "apos": "'",
	"nbsp": " ", "ndash": "–", "mdash": "—", "plusmn": "±",
	"times": "×", "deg": "°", "micro": "µ", "middot": "·",
	"le": "≤", "ge": "≥", "copy": "©", "reg": "®", "sect": "§",
	"hellip": "…", "rsquo": "'", "lsquo": "'", "ldquo": "“", "rdquo": "”",
}

// DecodeEntities resolves the HTML entities common in CORD-19 fragments,
// including numeric character references.
func DecodeEntities(s string) string {
	if !strings.ContainsRune(s, '&') {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		if s[i] != '&' {
			b.WriteByte(s[i])
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 || semi > 10 {
			b.WriteByte(s[i])
			i++
			continue
		}
		ent := s[i+1 : i+semi]
		if strings.HasPrefix(ent, "#") {
			num := ent[1:]
			base := 10
			if strings.HasPrefix(num, "x") || strings.HasPrefix(num, "X") {
				num, base = num[1:], 16
			}
			if n, err := strconv.ParseInt(num, base, 32); err == nil && n > 0 {
				b.WriteRune(rune(n))
				i += semi + 1
				continue
			}
		} else if rep, ok := entities[strings.ToLower(ent)]; ok {
			b.WriteString(rep)
			i += semi + 1
			continue
		}
		b.WriteByte(s[i])
		i++
	}
	return b.String()
}

// cleanText collapses whitespace and decodes entities.
func cleanText(s string) string {
	return strings.Join(strings.Fields(DecodeEntities(s)), " ")
}

// pendingSpan tracks a rowspan cell that must be copied into later rows.
type pendingSpan struct {
	col, remaining, width int
	bornRow               int // index of the row that declared the span
	text                  string
}

// ParseTables extracts every <table> in the HTML fragment.
func ParseTables(src string) ([]*Table, error) {
	toks := lexHTML(src)
	var tables []*Table
	var cur *Table

	var inCaption, inCell, inHead bool
	var cellBuf strings.Builder
	var cellSpanCols int
	var cellSpanRows int
	var cellIsTH bool
	var row []string
	var rowHasTH bool
	var rowOpen bool
	var spans []pendingSpan
	var captionBuf strings.Builder

	curRowIdx := func() int {
		if cur == nil {
			return 0
		}
		return len(cur.Rows)
	}

	endCell := func() {
		if !inCell || cur == nil {
			return
		}
		inCell = false
		text := cleanText(cellBuf.String())
		cellBuf.Reset()
		for c := 0; c < cellSpanCols; c++ {
			row = append(row, text)
		}
		if cellSpanRows > 1 {
			spans = append(spans, pendingSpan{
				col:       len(row) - cellSpanCols,
				remaining: cellSpanRows - 1,
				width:     cellSpanCols,
				bornRow:   curRowIdx(),
				text:      text,
			})
		}
		if cellIsTH {
			rowHasTH = true
		}
	}

	endRow := func() {
		if !rowOpen || cur == nil {
			return
		}
		endCell()
		rowOpen = false
		idx := len(cur.Rows)
		// fill any still-active span columns this row never reached
		for i := range spans {
			sp := &spans[i]
			if sp.remaining <= 0 || sp.bornRow >= idx {
				continue
			}
			for len(row) < sp.col {
				row = append(row, "")
			}
			if len(row) == sp.col {
				for w := 0; w < sp.width; w++ {
					row = append(row, sp.text)
				}
			}
			sp.remaining--
		}
		if len(row) == 0 {
			return
		}
		cur.Rows = append(cur.Rows, row)
		if rowHasTH || inHead {
			cur.MarkupHeaderRows = append(cur.MarkupHeaderRows, idx)
		}
		row = nil
		rowHasTH = false
	}

	endTable := func() {
		if cur == nil {
			return
		}
		endRow()
		cur.Caption = cleanText(captionBuf.String())
		captionBuf.Reset()
		padRect(cur)
		if len(cur.Rows) > 0 {
			tables = append(tables, cur)
		}
		cur = nil
		spans = nil
		inCaption, inHead = false, false
	}

	for _, tk := range toks {
		switch tk.kind {
		case tokText:
			switch {
			case inCell:
				cellBuf.WriteString(tk.text)
				cellBuf.WriteByte(' ')
			case inCaption:
				captionBuf.WriteString(tk.text)
				captionBuf.WriteByte(' ')
			}
		case tokOpen, tokSelfClose:
			switch tk.name {
			case "table":
				endTable()
				cur = &Table{}
			case "caption":
				if cur != nil {
					inCaption = true
				}
			case "thead":
				inHead = true
			case "tbody", "tfoot":
				endRow()
				inHead = false
			case "tr":
				if cur != nil {
					endRow()
					rowOpen = true
				}
			case "td", "th":
				if cur != nil {
					if !rowOpen {
						rowOpen = true // tolerate <td> without <tr>
					}
					endCell()
					applySpansBeforeCell(&row, spans, curRowIdx())
					inCell = true
					cellIsTH = tk.name == "th"
					cellSpanCols = spanAttr(tk.attrs, "colspan")
					cellSpanRows = spanAttr(tk.attrs, "rowspan")
				}
			case "br":
				if inCell {
					cellBuf.WriteByte(' ')
				}
			}
		case tokClose:
			switch tk.name {
			case "table":
				endTable()
			case "caption":
				inCaption = false
			case "thead":
				endRow()
				inHead = false
			case "tr":
				endRow()
			case "td", "th":
				endCell()
			}
		}
	}
	endTable() // tolerate unclosed </table>
	return tables, nil
}

// applySpansBeforeCell fills columns occupied by active rowspans (born in
// an earlier row) that sit at the position the next cell would occupy.
func applySpansBeforeCell(row *[]string, spans []pendingSpan, rowIdx int) {
	for _, sp := range spans {
		if sp.remaining > 0 && sp.bornRow < rowIdx && sp.col == len(*row) {
			for w := 0; w < sp.width; w++ {
				*row = append(*row, sp.text)
			}
		}
	}
}

func spanAttr(attrs map[string]string, key string) int {
	v, ok := attrs[key]
	if !ok {
		return 1
	}
	n, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || n < 1 {
		return 1
	}
	if n > 64 {
		n = 64 // clamp pathological spans
	}
	return n
}

// padRect pads ragged rows with empty cells so the grid is rectangular,
// which the positional-feature extractor (§3.5) relies on.
func padRect(t *Table) {
	w := t.NumCols()
	for i, r := range t.Rows {
		for len(r) < w {
			r = append(r, "")
		}
		t.Rows[i] = r
	}
}

// ParseOne parses a fragment expected to contain exactly one table.
func ParseOne(src string) (*Table, error) {
	ts, err := ParseTables(src)
	if err != nil {
		return nil, err
	}
	if len(ts) == 0 {
		return nil, fmt.Errorf("tableparse: no table in fragment")
	}
	return ts[0], nil
}
