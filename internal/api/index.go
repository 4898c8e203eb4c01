package api

import (
	"html/template"
	"net/http"

	"covidkg/internal/kg"
)

// indexTmpl is the minimal interactive browser: a search box over the
// three engines and a collapsible KG tree — the terminal-grade analogue
// of the covidkg.org front-end.
var indexTmpl = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html><head><title>COVIDKG</title><style>
body{font-family:sans-serif;margin:2rem;max-width:60rem}
li{margin:.15rem 0} .papers{color:#777;font-size:.85em}
code{background:#eee;padding:0 .3em}
</style></head><body>
<h1>COVIDKG</h1>
<p>{{.Pubs}} publications stored · {{.Nodes}} knowledge-graph nodes</p>
<h2>Search API</h2>
<ul>
<li><code>GET /api/v1/search?engine=all&amp;q=masks</code> — all publication fields</li>
<li><code>GET /api/v1/search?engine=tables&amp;q=ventilators</code> — table data</li>
<li><code>GET /api/v1/search?engine=fields&amp;title=...&amp;abstract=...&amp;caption=...</code></li>
<li><code>GET /api/v1/kg/search?q=vaccines</code> — KG nodes with paths</li>
<li><code>GET /api/v1/models</code> — released pre-trained models</li>
</ul>
<h2>Knowledge Graph</h2>
{{.Tree}}
</body></html>`))

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	tree := s.renderTree()
	data := struct {
		Pubs  int
		Nodes int
		Tree  template.HTML
	}{s.sys.Pubs.Count(), s.sys.Graph.Size(), template.HTML(tree)}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = indexTmpl.Execute(w, data)
}

// renderTree builds a nested <ul> of the KG (depth-limited to keep pages
// small on large graphs).
func (s *Server) renderTree() string {
	const maxDepth = 4
	var out []byte
	depthOpen := 0
	s.sys.Graph.Walk(func(n kg.Node, depth int) bool {
		if depth > maxDepth {
			return true
		}
		for depthOpen > depth {
			out = append(out, "</ul>"...)
			depthOpen--
		}
		for depthOpen < depth {
			out = append(out, "<ul>"...)
			depthOpen++
		}
		out = append(out, "<li>"...)
		out = append(out, template.HTMLEscapeString(n.Label)...)
		if len(n.Papers) > 0 {
			out = append(out, (" <span class=papers>(" +
				template.HTMLEscapeString(itoa(len(n.Papers))) + " papers)</span>")...)
		}
		out = append(out, "</li>"...)
		return true
	})
	for depthOpen > 0 {
		out = append(out, "</ul>"...)
		depthOpen--
	}
	return string(out)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
