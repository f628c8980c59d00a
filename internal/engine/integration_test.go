package engine

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/sqlast"
	"repro/internal/stats"
	"repro/internal/translate"
	"repro/internal/xmlgen"
	"repro/internal/xpath"
)

// normalizeSQL groups SQL output rows by the ID column and renders each
// group as a sorted multiset of name=value strings, dropping NULLs and
// normalizing split columns (author__2 -> author).
func normalizeSQL(res *Result) []string {
	idIdx := -1
	for i, c := range res.Cols {
		if c == "ID" {
			idIdx = i
		}
	}
	groups := make(map[string][]string)
	var order []string
	for _, row := range res.Rows {
		id := row[idIdx].String()
		if _, ok := groups[id]; !ok {
			groups[id] = []string{}
			order = append(order, id)
		}
		for i, v := range row {
			if i == idIdx || v.Null {
				continue
			}
			name := res.Cols[i]
			if k := strings.Index(name, "__"); k >= 0 {
				name = name[:k]
			}
			groups[id] = append(groups[id], name+"="+v.String())
		}
	}
	out := make([]string, 0, len(order))
	for _, id := range order {
		g := groups[id]
		sort.Strings(g)
		out = append(out, strings.Join(g, ";"))
	}
	return out
}

// normalizeGold renders evaluator result groups the same way.
func normalizeGold(groups []xmlgen.ResultGroup, proj []xpath.Path, bare []string) []string {
	var out []string
	for _, g := range groups {
		var items []string
		for i, vals := range g.Values {
			name := ""
			if len(proj) > 0 {
				name = strings.Join(proj[i], "_")
			} else if i < len(bare) {
				name = bare[i]
			}
			for _, v := range vals {
				items = append(items, name+"="+v.String())
			}
		}
		sort.Strings(items)
		out = append(out, strings.Join(items, ";"))
	}
	return out
}

// runPipeline shreds docs under the mapping, translates, plans with the
// config, executes, and compares against the document evaluator.
func runPipeline(t *testing.T, tree *schema.Tree, baseTree *schema.Tree, doc *xmlgen.Doc,
	queries []string, cfg *physical.Config) {
	t.Helper()
	m, err := shred.Compile(tree)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	db, err := shred.Shred(m, doc)
	if err != nil {
		t.Fatalf("Shred: %v", err)
	}
	if cfg == nil {
		cfg = &physical.Config{}
	}
	built, err := Build(db, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	prov := stats.FromDatabase(db)
	opt := optimizer.New(prov)
	for _, qs := range queries {
		q := xpath.MustParse(qs)
		sql, err := translate.Translate(m, q)
		if err != nil {
			t.Fatalf("%s: translate: %v", qs, err)
		}
		plan, err := opt.PlanQuery(sql, cfg)
		if err != nil {
			t.Fatalf("%s: plan: %v\nSQL:\n%s", qs, err, sql.SQL())
		}
		res, err := Execute(built, plan)
		if err != nil {
			t.Fatalf("%s: execute: %v\nSQL:\n%s", qs, err, sql.SQL())
		}
		gold, err := xmlgen.Evaluate(baseTree, doc, q)
		if err != nil {
			t.Fatalf("%s: evaluate: %v", qs, err)
		}
		got := normalizeSQL(res)
		bare := bareNames(tree, q)
		want := normalizeGold(gold, q.Proj, bare)
		// The evaluator emits a group even when all projections are
		// empty; SQL prunes all-NULL rows. Drop empty groups on both
		// sides before comparing.
		got = dropEmpty(got)
		want = dropEmpty(want)
		if len(got) != len(want) {
			t.Errorf("%s: got %d groups, want %d\nSQL:\n%s", qs, len(got), len(want), sql.SQL())
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: group %d differs\n got: %s\nwant: %s\nSQL:\n%s", qs, i, got[i], want[i], sql.SQL())
				break
			}
		}
	}
}

func dropEmpty(in []string) []string {
	var out []string
	for _, s := range in {
		if s != "" {
			out = append(out, s)
		}
	}
	return out
}

// bareNames reconstructs the implicit projection names of a bare
// context query for the gold normalization.
func bareNames(tree *schema.Tree, q *xpath.Query) []string {
	if len(q.Proj) > 0 {
		return nil
	}
	ctxs := resolveCtx(tree, q)
	if len(ctxs) == 0 {
		return nil
	}
	ctx := ctxs[0]
	if ctx.IsLeaf() {
		return []string{ctx.Name}
	}
	var out []string
	for _, c := range ctx.ElementChildren() {
		if c.IsLeaf() && !c.IsSetValued() {
			out = append(out, c.Name)
		}
	}
	return out
}

func resolveCtx(tree *schema.Tree, q *xpath.Query) []*schema.Node {
	name := q.ContextName()
	return tree.ElementsNamed(name)
}

var movieQueries = []string{
	`//movie[year >= 2000]/(title | box_office)`,
	`//movie[title = "Movie Title 000042"]/(aka_title | avg_rating)`,
	`//movie/year`,
	`//movie[genre = "genre-03"]/(title | year | actor)`,
	`//movie[year = 1984]/(title | seasons | director)`,
	`//movie[actor = "Bob Author-00017"]/title`,
	`//movie[country = "country-07"]/(avg_rating | language | runtime)`,
	`//movie/(title | aka_title)`,
}

var dblpQueries = []string{
	`/dblp/inproceedings[booktitle = "SIGMOD CONFERENCE"]/(title | year | author)`,
	`/dblp/inproceedings[year = 2000]/(title | booktitle | pages)`,
	`//inproceedings[year >= 1999]/(title | author | cite)`,
	`//book/(title | publisher | author)`,
	`//book[publisher = "publisher-03"]/(title | price)`,
	`//inproceedings[author = "Fatima Author-00005"]/title`,
	`//inproceedings/ee`,
}

func TestPipelineMovieHybrid(t *testing.T) {
	base := schema.Movie()
	doc := xmlgen.GenerateMovie(base, xmlgen.MovieOptions{Movies: 300, Seed: 21})
	runPipeline(t, schema.Movie(), base, doc, movieQueries, nil)
}

func TestPipelineDBLPHybrid(t *testing.T) {
	base := schema.DBLP()
	doc := xmlgen.GenerateDBLP(base, xmlgen.DBLPOptions{Inproceedings: 300, Books: 40, Seed: 21})
	runPipeline(t, schema.DBLP(), base, doc, dblpQueries, nil)
}

func TestPipelineMovieFullySplit(t *testing.T) {
	base := schema.Movie()
	doc := xmlgen.GenerateMovie(base, xmlgen.MovieOptions{Movies: 200, Seed: 22})
	tree := schema.Movie()
	schema.ApplyFullySplit(tree)
	runPipeline(t, tree, base, doc, []string{
		`//movie/year`,
		`//movie[year >= 2000]/title`,
		`//movie/(title | aka_title)`,
	}, nil)
}

func TestPipelineMovieChoiceDistribution(t *testing.T) {
	base := schema.Movie()
	doc := xmlgen.GenerateMovie(base, xmlgen.MovieOptions{Movies: 300, Seed: 23})
	tree := schema.Movie()
	movie := tree.ElementsNamed("movie")[0]
	choice := tree.ElementsNamed("box_office")[0].UnderChoice()
	movie.Distributions = []schema.Distribution{{Choice: choice.ID}}
	runPipeline(t, tree, base, doc, movieQueries, nil)
}

func TestPipelineMovieImplicitUnion(t *testing.T) {
	base := schema.Movie()
	doc := xmlgen.GenerateMovie(base, xmlgen.MovieOptions{Movies: 300, Seed: 24})
	tree := schema.Movie()
	movie := tree.ElementsNamed("movie")[0]
	rating := tree.ElementsNamed("avg_rating")[0]
	lang := tree.ElementsNamed("language")[0]
	movie.Distributions = []schema.Distribution{{Optionals: []int{rating.ID, lang.ID}}}
	runPipeline(t, tree, base, doc, movieQueries, nil)
}

func TestPipelineDBLPRepetitionSplit(t *testing.T) {
	base := schema.DBLP()
	doc := xmlgen.GenerateDBLP(base, xmlgen.DBLPOptions{Inproceedings: 300, Books: 40, Seed: 25})
	tree := schema.DBLP()
	for _, n := range tree.ElementsNamed("author") {
		if n.ElementParent().Name == "inproceedings" {
			n.SplitCount = 3
		}
	}
	runPipeline(t, tree, base, doc, dblpQueries, nil)
}

func TestPipelineDBLPTypeSplit(t *testing.T) {
	base := schema.DBLP()
	doc := xmlgen.GenerateDBLP(base, xmlgen.DBLPOptions{Inproceedings: 250, Books: 50, Seed: 26})
	tree := schema.DBLP()
	for _, n := range tree.ElementsNamed("author") {
		if n.ElementParent().Name == "book" {
			n.Annotation = "book_author"
		} else {
			n.Annotation = "inproc_author"
		}
	}
	runPipeline(t, tree, base, doc, dblpQueries, nil)
}

func TestPipelineWithIndexes(t *testing.T) {
	base := schema.Movie()
	doc := xmlgen.GenerateMovie(base, xmlgen.MovieOptions{Movies: 300, Seed: 27})
	cfg := &physical.Config{}
	cfg.AddIndex(&physical.Index{Name: "ix_movie_year", Table: "movie", Key: []string{"year"},
		Include: []string{"ID", "title", "box_office"}})
	cfg.AddIndex(&physical.Index{Name: "ix_aka_pid", Table: "aka_title", Key: []string{"PID"},
		Include: []string{"aka_title"}})
	cfg.AddIndex(&physical.Index{Name: "ix_actor_pid", Table: "actor", Key: []string{"PID"}})
	cfg.AddIndex(&physical.Index{Name: "ix_movie_genre", Table: "movie", Key: []string{"genre"}})
	runPipeline(t, schema.Movie(), base, doc, movieQueries, cfg)
}

func TestPipelineWithView(t *testing.T) {
	base := schema.Movie()
	doc := xmlgen.GenerateMovie(base, xmlgen.MovieOptions{Movies: 300, Seed: 28})
	cfg := &physical.Config{}
	cfg.AddView(&physical.View{Name: "v_movie_actor", Outer: "movie", Inner: "actor",
		OuterCols: []string{"ID", "year", "genre", "title"}, InnerCols: []string{"actor"}})
	runPipeline(t, schema.Movie(), base, doc, []string{
		`//movie[genre = "genre-03"]/(title | year | actor)`,
		`//movie[year >= 2000]/(title | box_office)`,
	}, cfg)
}

func TestPipelineWithVerticalPartition(t *testing.T) {
	base := schema.Movie()
	doc := xmlgen.GenerateMovie(base, xmlgen.MovieOptions{Movies: 300, Seed: 29})
	cfg := &physical.Config{}
	cfg.AddPartition(&physical.VPartition{Table: "movie", Groups: [][]string{
		{"title", "year", "box_office", "seasons"},
		{"avg_rating", "genre", "country", "language", "runtime"},
	}})
	runPipeline(t, schema.Movie(), base, doc, movieQueries, cfg)
}

func TestPipelineSplitSelection(t *testing.T) {
	// Selection on a repetition-split element exercises PredOrExists.
	base := schema.DBLP()
	doc := xmlgen.GenerateDBLP(base, xmlgen.DBLPOptions{Inproceedings: 300, Books: 30, Seed: 30})
	tree := schema.DBLP()
	for _, n := range tree.ElementsNamed("author") {
		if n.ElementParent().Name == "inproceedings" {
			n.SplitCount = 2
		}
	}
	runPipeline(t, tree, base, doc, []string{
		`//inproceedings[author = "Fatima Author-00005"]/(title | year)`,
	}, nil)
}

func TestPipelineCombinedTransformations(t *testing.T) {
	// Distribution + repetition split + type split together.
	base := schema.Movie()
	doc := xmlgen.GenerateMovie(base, xmlgen.MovieOptions{Movies: 300, Seed: 31})
	tree := schema.Movie()
	movie := tree.ElementsNamed("movie")[0]
	choice := tree.ElementsNamed("box_office")[0].UnderChoice()
	rating := tree.ElementsNamed("avg_rating")[0]
	movie.Distributions = []schema.Distribution{
		{Choice: choice.ID},
		{Optionals: []int{rating.ID}},
	}
	for _, n := range tree.ElementsNamed("aka_title") {
		n.SplitCount = 2
	}
	runPipeline(t, tree, base, doc, movieQueries, nil)
}

// TestJoinMethodKeepsRowOrder: a physical design changes what a query
// costs, never what it returns. Under hybrid inlining every query of
// movieQueries and dblpQueries, and /dblp/inproceedings/author, returns
// bit-identical rows in the same order from both executors whether its
// joins hash (no design) or probe a covering index on every child
// relation's PID (INL joins): a parent's children come out in document
// order either way.
func TestJoinMethodKeepsRowOrder(t *testing.T) {
	for _, c := range []struct {
		name    string
		tree    func() *schema.Tree
		doc     *xmlgen.Doc
		queries []string
	}{
		{"movie", schema.Movie, xmlgen.GenerateMovie(schema.Movie(), xmlgen.MovieOptions{Movies: 300, Seed: 21}), movieQueries},
		{"dblp", schema.DBLP, xmlgen.GenerateDBLP(schema.DBLP(), xmlgen.DBLPOptions{Inproceedings: 300, Books: 40, Seed: 21}),
			append([]string{`/dblp/inproceedings/author`}, dblpQueries...)},
	} {
		m, err := shred.Compile(c.tree())
		if err != nil {
			t.Fatal(err)
		}
		db, err := shred.Shred(m, c.doc)
		if err != nil {
			t.Fatal(err)
		}
		covering := &physical.Config{}
		for _, tb := range db.Tables() {
			if tb.Parent == "" {
				continue
			}
			var include []string
			for _, col := range tb.Columns {
				if col.Name != rel.PIDColumn {
					include = append(include, col.Name)
				}
			}
			covering.AddIndex(&physical.Index{Name: "ix_" + tb.Name + "_pid", Table: tb.Name,
				Key: []string{rel.PIDColumn}, Include: include})
		}
		hashB, hashPlans := buildPlans(t, c.tree(), c.doc, c.queries, nil)
		inlB, inlPlans := buildPlans(t, c.tree(), c.doc, c.queries, covering)
		inl := 0
		for i, q := range c.queries {
			for _, br := range inlPlans[i].Branches {
				for _, j := range br.Joins {
					if j.Method == optimizer.JoinINL {
						inl++
					}
				}
			}
			hash, err := Execute(hashB, hashPlans[i])
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			for name, run := range map[string]func(*Built, *optimizer.Plan) (*Result, error){"batch": Execute, "reference": ExecuteReference} {
				got, err := run(inlB, inlPlans[i])
				if err != nil {
					t.Fatalf("%s %s: %v", name, q, err)
				}
				// Rows only: the designs read different row counts.
				requireIdentical(t, name+" "+q, got, &Result{Cols: hash.Cols, Rows: hash.Rows, Stats: got.Stats})
			}
		}
		if inl == 0 {
			t.Fatalf("%s: no plan joins by INL under the covering design; the test lost its point", c.name)
		}
	}
}

// Sanity checks over the physical layer itself.

func TestIndexSeekMatchesFilter(t *testing.T) {
	base := schema.Movie()
	doc := xmlgen.GenerateMovie(base, xmlgen.MovieOptions{Movies: 500, Seed: 33})
	m, _ := shred.Compile(schema.Movie())
	db, err := shred.Shred(m, doc)
	if err != nil {
		t.Fatal(err)
	}
	idx := &physical.Index{Name: "ix", Table: "movie", Key: []string{"year"}}
	cfg := &physical.Config{Indexes: []*physical.Index{idx}}
	built, err := Build(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bi := built.Index(idx)
	mt := db.Table("movie")
	yi := mt.ColIndex("year")
	for _, op := range []sqlast.CmpOp{sqlast.OpEq, sqlast.OpLt, sqlast.OpLe, sqlast.OpGt, sqlast.OpGe} {
		for _, year := range []int64{1950, 1984, 2004, 1900, 2050} {
			got := len(bi.seekRange(op, rel.Int(year)))
			want := 0
			for _, row := range mt.Rows() {
				if !row[yi].Null && op.Matches(row[yi].Compare(rel.Int(year))) {
					want++
				}
			}
			if got != want {
				t.Fatalf("seekRange(%s, %d) = %d rows, want %d", op, year, got, want)
			}
		}
	}
}

func TestViewMaterialization(t *testing.T) {
	base := schema.Movie()
	doc := xmlgen.GenerateMovie(base, xmlgen.MovieOptions{Movies: 100, Seed: 34})
	m, _ := shred.Compile(schema.Movie())
	db, err := shred.Shred(m, doc)
	if err != nil {
		t.Fatal(err)
	}
	v := &physical.View{Name: "v", Outer: "movie", Inner: "actor",
		OuterCols: []string{"ID", "year"}, InnerCols: []string{"actor"}}
	built, err := Build(db, &physical.Config{Views: []*physical.View{v}})
	if err != nil {
		t.Fatal(err)
	}
	vt := built.ViewTable("v")
	if vt.RowCount() != db.Table("actor").RowCount() {
		t.Errorf("view rows = %d, want %d (one per actor)", vt.RowCount(), db.Table("actor").RowCount())
	}
	if vt.ColIndex("movie__year") < 0 || vt.ColIndex("actor__actor") < 0 {
		t.Errorf("view column naming wrong: %v", vt.Columns)
	}
}

func TestPartitionAlignment(t *testing.T) {
	base := schema.Movie()
	doc := xmlgen.GenerateMovie(base, xmlgen.MovieOptions{Movies: 100, Seed: 35})
	m, _ := shred.Compile(schema.Movie())
	db, err := shred.Shred(m, doc)
	if err != nil {
		t.Fatal(err)
	}
	// The group tables exist only inside the reference executor, which
	// zips them; this pins the copies it builds.
	vp := &physical.VPartition{Table: "movie", Groups: [][]string{{"title"}, {"year", "genre"}}}
	gts, err := buildPartition(db, vp)
	if err != nil {
		t.Fatal(err)
	}
	g0, g1 := gts[0], gts[1]
	mt := db.Table("movie")
	if g0.RowCount() != mt.RowCount() || g1.RowCount() != mt.RowCount() {
		t.Fatal("group row counts differ from base")
	}
	mrows, g0rows, g1rows := mt.Rows(), g0.Rows(), g1.Rows()
	for i := range mrows {
		if g0rows[i][0].I != g1rows[i][0].I || g0rows[i][0].I != mrows[i][mt.ColIndex("ID")].I {
			t.Fatalf("row %d misaligned across groups", i)
		}
	}
}

// TestOptimizerPrefersCoveringIndex checks the central cost-model
// ordering of the intro example: with a selective predicate and a
// covering index, the seek must beat the scan.
func TestOptimizerPrefersCoveringIndex(t *testing.T) {
	base := schema.Movie()
	doc := xmlgen.GenerateMovie(base, xmlgen.MovieOptions{Movies: 2000, Seed: 36})
	m, _ := shred.Compile(schema.Movie())
	db, err := shred.Shred(m, doc)
	if err != nil {
		t.Fatal(err)
	}
	prov := stats.FromDatabase(db)
	opt := optimizer.New(prov)
	q := xpath.MustParse(`//movie[title = "Movie Title 000042"]/(year | genre)`)
	sql, err := translate.Translate(m, q)
	if err != nil {
		t.Fatal(err)
	}
	noIdx, err := opt.Cost(sql, &physical.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := &physical.Config{}
	cfg.AddIndex(&physical.Index{Name: "cov", Table: "movie", Key: []string{"title"},
		Include: []string{"ID", "year", "genre"}})
	withIdx, err := opt.Cost(sql, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if withIdx >= noIdx {
		t.Errorf("covering index did not reduce cost: %f >= %f", withIdx, noIdx)
	}
	if withIdx > noIdx/5 {
		t.Errorf("covering index speedup too small: %f vs %f", withIdx, noIdx)
	}
}

func TestOptimizerCallsCounted(t *testing.T) {
	base := schema.Movie()
	doc := xmlgen.GenerateMovie(base, xmlgen.MovieOptions{Movies: 50, Seed: 37})
	m, _ := shred.Compile(schema.Movie())
	db, _ := shred.Shred(m, doc)
	opt := optimizer.New(stats.FromDatabase(db))
	q, _ := translate.Translate(m, xpath.MustParse(`//movie/year`))
	for i := 0; i < 3; i++ {
		if _, err := opt.Cost(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	if opt.Calls() != 3 {
		t.Errorf("Calls = %d, want 3", opt.Calls())
	}
}

func fmtRows(res *Result) string {
	var b strings.Builder
	for _, r := range res.Rows {
		for i, v := range r {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(v.String())
		}
		b.WriteString("\n")
	}
	return b.String()
}
