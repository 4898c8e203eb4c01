package pipeline_test

import (
	"context"
	"encoding/json"
	"fmt"

	"covidkg/internal/jsondoc"
	"covidkg/internal/pipeline"
)

// ExampleCompile runs a MongoDB-dialect JSON aggregation over a document
// slice — the query language the COVIDKG search engines are built on.
func ExampleCompile() {
	docs := pipeline.SliceSource{
		jsondoc.Doc{"title": "Masks and aerosols", "year": 2021.0},
		jsondoc.Doc{"title": "Vaccination outcomes", "year": 2022.0},
		jsondoc.Doc{"title": "Mask mandates", "year": 2020.0},
	}
	var stages []any
	spec := `[
		{"$match": {"title": {"$regex": "(?i)mask"}}},
		{"$sort":  {"year": -1}},
		{"$project": {"title": 1, "_id": 0}}
	]`
	if err := json.Unmarshal([]byte(spec), &stages); err != nil {
		panic(err)
	}
	p, err := pipeline.Compile(stages)
	if err != nil {
		panic(err)
	}
	out, err := p.RunContext(context.Background(), docs)
	if err != nil {
		panic(err)
	}
	for _, d := range out {
		fmt.Println(d.GetString("title"))
	}
	// Output:
	// Masks and aerosols
	// Mask mandates
}
