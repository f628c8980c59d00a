package xmlshred_test

import (
	"bytes"
	"strings"
	"testing"

	xmlshred "repro"
)

// TestPublicAPIQuickstart exercises the documented quickstart flow end
// to end through the facade only.
func TestPublicAPIQuickstart(t *testing.T) {
	tree := xmlshred.MovieSchema()
	doc := xmlshred.GenerateMovie(tree, xmlshred.MovieOptions{Movies: 400, Seed: 1})
	col := xmlshred.CollectStatistics(tree, doc)
	w := xmlshred.MustWorkload("t",
		`//movie[year >= 2000]/(title | box_office)`,
		`//movie[genre = "genre-03"]/(title | actor)`,
	)
	adv := xmlshred.NewAdvisor(tree, col, w, xmlshred.Options{})
	res, err := adv.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	if res.EstCost <= 0 || res.Mapping == nil || res.Config == nil {
		t.Fatalf("degenerate result: %+v", res)
	}
	ex, err := adv.MeasureExecution(res, doc)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Rows == 0 || ex.Elapsed <= 0 {
		t.Errorf("execution: %+v", ex)
	}
}

func TestPublicAPILowLevel(t *testing.T) {
	tree := xmlshred.MovieSchema()
	doc := xmlshred.GenerateMovie(tree, xmlshred.MovieOptions{Movies: 300, Seed: 2})
	col := xmlshred.CollectStatistics(tree, doc)
	m, err := xmlshred.CompileMapping(tree)
	if err != nil {
		t.Fatal(err)
	}
	db, err := xmlshred.ShredDocuments(m, doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xmlshred.ShredDocuments(m, doc, &xmlshred.Document{}); err == nil {
		t.Error("ShredDocuments accepted a document with no root")
	}
	q, err := xmlshred.ParseQuery(`//movie[year >= 2000]/title`)
	if err != nil {
		t.Fatal(err)
	}
	sql, err := xmlshred.TranslateQuery(m, q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql.SQL(), "SELECT") {
		t.Error("SQL rendering broken")
	}
	w := &xmlshred.Workload{Name: "x", Queries: []xmlshred.WorkloadQuery{{XPath: q, Weight: 1}}}
	cfg, err := xmlshred.TunePhysicalDesign(m, col, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows, cols, err := xmlshred.ExecuteQuery(db, cfg, sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || len(cols) < 2 {
		t.Errorf("query returned %d rows, %v cols", len(rows), cols)
	}
	// Executing without a configuration must agree on row count.
	rows2, _, err := xmlshred.ExecuteQuery(db, nil, sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(rows2) {
		t.Errorf("tuned (%d rows) and untuned (%d rows) disagree", len(rows), len(rows2))
	}
}

func TestPublicAPISchemaIO(t *testing.T) {
	tree := xmlshred.DBLPSchema()
	var buf bytes.Buffer
	if err := xmlshred.WriteXSD(&buf, tree); err != nil {
		t.Fatal(err)
	}
	back, err := xmlshred.ParseXSD(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Elements()) != len(tree.Elements()) {
		t.Error("XSD round trip changed the schema")
	}
	dtd := `<!ELEMENT r (x*)> <!ELEMENT x (#PCDATA)>`
	dt, err := xmlshred.ParseDTDString(dtd, "r")
	if err != nil {
		t.Fatal(err)
	}
	if dt.Root.Name != "r" {
		t.Error("DTD parsing broken")
	}
	// XML I/O round trip.
	doc := xmlshred.GenerateMovie(xmlshred.MovieSchema(), xmlshred.MovieOptions{Movies: 20, Seed: 3})
	var xb bytes.Buffer
	if err := xmlshred.WriteXML(&xb, doc); err != nil {
		t.Fatal(err)
	}
	if _, err := xmlshred.ParseXML(xmlshred.MovieSchema(), &xb); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIGeneratedWorkloads(t *testing.T) {
	tree := xmlshred.DBLPSchema()
	doc := xmlshred.GenerateDBLP(tree, xmlshred.DBLPOptions{Inproceedings: 500, Books: 50, Seed: 4})
	col := xmlshred.CollectStatistics(tree, doc)
	for _, p := range xmlshred.StandardWorkloadParams(5, 9) {
		w, err := xmlshred.GenerateWorkload(tree, col, p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if len(w.Queries) != 5 {
			t.Errorf("%s: %d queries", p.Name, len(w.Queries))
		}
	}
}
