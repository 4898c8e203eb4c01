package main

import (
	"encoding/json"
	"fmt"
	"strings"
)

// searchPage is the part of a search response the checks read.
type searchPage struct {
	Results []struct {
		DocID string
		Score float64
	}
	Total int
}

// checkSearchPage: a page holds at most 10 results in non-increasing
// score order.
func checkSearchPage(body []byte) (searchPage, error) {
	var pg searchPage
	if err := json.Unmarshal(body, &pg); err != nil {
		return pg, fmt.Errorf("search page: %w", err)
	}
	if len(pg.Results) > 10 {
		return pg, fmt.Errorf("search page holds %d results, want at most 10", len(pg.Results))
	}
	for i := 1; i < len(pg.Results); i++ {
		if pg.Results[i].Score > pg.Results[i-1].Score {
			return pg, fmt.Errorf("search page out of order: result %d scores %v after %v",
				i, pg.Results[i].Score, pg.Results[i-1].Score)
		}
	}
	return pg, nil
}

// checkMarker is read-your-writes: once a batch is acked, a search for
// its marker token returns exactly the document that carries it.
func checkMarker(body []byte, wantID string) error {
	pg, err := checkSearchPage(body)
	if err != nil {
		return err
	}
	if pg.Total != 1 || len(pg.Results) != 1 || pg.Results[0].DocID != wantID {
		return fmt.Errorf("marker search: total %d, %d results, want exactly %s", pg.Total, len(pg.Results), wantID)
	}
	return nil
}

// checkIngestAck: every document of the batch was stored.
func checkIngestAck(body []byte) error {
	var ack struct {
		Ingested int `json:"ingested"`
		Failed   int `json:"failed"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return fmt.Errorf("ingest ack: %w", err)
	}
	if ack.Ingested != ingestBatch || ack.Failed != 0 {
		return fmt.Errorf("ingest ack: ingested %d failed %d, want %d and 0", ack.Ingested, ack.Failed, ingestBatch)
	}
	return nil
}

// kgQueryResult is the part of a /kg/query response the checks and the
// per-layer counts read.
type kgQueryResult struct {
	Paths []struct {
		Nodes []struct {
			Label  string `json:"label"`
			Norm   string `json:"norm"`
			Source string `json:"source"`
		} `json:"nodes"`
	} `json:"paths"`
	Expansions int  `json:"expansions"`
	Truncated  bool `json:"truncated"`
}

// checkKGQuery: every returned path respects the template's hop range
// and its start and end predicates.
func checkKGQuery(body []byte, exp *kgExpect) (kgQueryResult, error) {
	var res kgQueryResult
	if err := json.Unmarshal(body, &res); err != nil {
		return res, fmt.Errorf("kg query: %w", err)
	}
	for i, p := range res.Paths {
		if len(p.Nodes) == 0 {
			return res, fmt.Errorf("kg query %s: path %d is empty", exp.template, i)
		}
		hops := len(p.Nodes) - 1
		if hops < exp.min || hops > exp.max {
			return res, fmt.Errorf("kg query %s: path %d has %d hops, want %d..%d", exp.template, i, hops, exp.min, exp.max)
		}
		first, last := p.Nodes[0], p.Nodes[hops]
		switch {
		case exp.startNorm != "" && first.Norm != exp.startNorm:
			return res, fmt.Errorf("kg query %s: path %d starts at norm %q, want %q", exp.template, i, first.Norm, exp.startNorm)
		case exp.endNorm != "" && last.Norm != exp.endNorm:
			return res, fmt.Errorf("kg query %s: path %d ends at norm %q, want %q", exp.template, i, last.Norm, exp.endNorm)
		case exp.startLabelHas != "" && !strings.Contains(strings.ToLower(first.Label), exp.startLabelHas):
			return res, fmt.Errorf("kg query %s: path %d starts at label %q, want one containing %q", exp.template, i, first.Label, exp.startLabelHas)
		case exp.startSrc != "" && first.Source != exp.startSrc:
			return res, fmt.Errorf("kg query %s: path %d starts at source %q, want %q", exp.template, i, first.Source, exp.startSrc)
		case exp.endSrc != "" && last.Source != exp.endSrc:
			return res, fmt.Errorf("kg query %s: path %d ends at source %q, want %q", exp.template, i, last.Source, exp.endSrc)
		}
	}
	return res, nil
}

// checkKGNode: the node resource answers for the node asked for.
func checkKGNode(body []byte, wantID string) error {
	var res struct {
		Node struct {
			ID string `json:"id"`
		} `json:"node"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("kg node: %w", err)
	}
	if res.Node.ID != wantID {
		return fmt.Errorf("kg node: got id %q, want %q", res.Node.ID, wantID)
	}
	return nil
}

// checkPublication: the point lookup returns the requested _id.
func checkPublication(body []byte, wantID string) error {
	var doc struct {
		ID string `json:"_id"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("publication: %w", err)
	}
	if doc.ID != wantID {
		return fmt.Errorf("publication: got _id %q, want %q", doc.ID, wantID)
	}
	return nil
}
