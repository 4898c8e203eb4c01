package pipeline

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"covidkg/internal/jsondoc"
)

// fuzzDocs is the fixed 20-document source FuzzCompile runs every
// compiled pipeline over: strings, numbers, an array to $unwind, a
// nested object and a field only some documents carry.
func fuzzDocs() SliceSource {
	src := make(SliceSource, 20)
	for i := range src {
		d := jsondoc.Doc{
			"_id":   fmt.Sprintf("d%02d", i),
			"i":     float64(i),
			"topic": fmt.Sprintf("t%d", i%3),
			"title": fmt.Sprintf("COVID paper %d about masks", i),
			"tags":  []any{"vaccine", fmt.Sprintf("tag%d", i%4)},
			"meta":  map[string]any{"year": float64(2019 + i%4)},
		}
		if i%2 == 0 {
			d["score"] = float64(i) / 2
		}
		src[i] = d
	}
	return src
}

// FuzzCompile holds the POST /api/v1/aggregate pipeline to its contract
// on arbitrary bodies: decoding, compiling and running the compiled
// pipeline either succeed or return an error, and never panic.
func FuzzCompile(f *testing.F) {
	for _, seed := range []string{
		`[{"$match": {"title": {"$regex": "(?i)covid"}}}, {"$project": {"title": 1}}, {"$sort": {"title": 1}}, {"$limit": 5}]`,
		`[{"$group": {"_id": "$topic", "n": {"$sum": 1}}}]`,
		`[{"$warp": 1}]`,
		`[]`,
		`not json`,
		`[{"$match": {"title": {"$regex": "covid"}}}]`,
		`[{"$count": "n"}]`,
		`[{"$unwind": "$tags"}, {"$group": {"_id": "$tags", "ids": {"$push": "$_id"}, "avg": {"$avg": "$score"}, "total": {"$sum": "$i"}}}]`,
		`[{"$match": {"meta.year": {"$gte": 2020, "$lt": 2022}, "topic": {"$in": ["t1", "t2"]}, "score": {"$exists": true}}}, {"$skip": 2}]`,
		`[{"$match": {"topic": {"$ne": "t0"}, "i": {"$eq": 3}}}, {"$project": {"_id": 0, "meta.year": 1}}]`,
		`[{"$sort": {"score": -1, "i": 1}}, {"$limit": 0}]`,
		`[{"$limit": -1}]`, `[{"$project": {}}]`, `[{"$unwind": "$"}]`, `[{"$match": {"title": {"$regex": "("}}}]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var stages []any
		if json.Unmarshal(body, &stages) != nil {
			return
		}
		p, err := Compile(stages)
		if err != nil {
			return
		}
		// a stage may fail at run time (a bad path); only a panic fails
		_, _ = p.RunContext(context.Background(), fuzzDocs())
	})
}
