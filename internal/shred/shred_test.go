package shred

import (
	"math"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/rel"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/xmlgen"
)

func compileDBLP(t *testing.T) (*schema.Tree, *Mapping) {
	t.Helper()
	tr := schema.DBLP()
	m, err := Compile(tr)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return tr, m
}

func TestCompileDBLPHybrid(t *testing.T) {
	_, m := compileDBLP(t)
	for _, name := range []string{"dblp", "inproceedings", "book", "title1", "author", "cite", "editor"} {
		if m.Relation(name) == nil {
			t.Errorf("missing relation %s; have %v", name, relationNames(m))
		}
	}
	in := m.Relation("inproceedings")
	for _, col := range []string{"ID", "PID", "title", "booktitle", "year", "pages", "ee", "cdrom", "url"} {
		if !hasColumn(in, col) {
			t.Errorf("inproceedings missing column %s", col)
		}
	}
	if hasColumn(in, "author") {
		t.Error("author should be a separate relation, not a column")
	}
	// Book title is outlined: no title column in book, title1 relation
	// carries a title value column.
	bk := m.Relation("book")
	if hasColumn(bk, "title") {
		t.Error("book title should be outlined to title1")
	}
	t1 := m.Relation("title1")
	if !hasColumn(t1, "title") {
		t.Errorf("title1 should carry a title value column, has %v", colNames(t1))
	}
	// Shared author: the relation has two anchors.
	if got := len(m.Relation("author").Anchors); got != 2 {
		t.Errorf("author anchors = %d, want 2", got)
	}
}

func TestCompileRepetitionSplit(t *testing.T) {
	tr := schema.DBLP()
	for _, n := range tr.ElementsNamed("author") {
		if n.ElementParent().Name == "inproceedings" {
			n.SplitCount = 5
		}
	}
	m, err := Compile(tr)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	in := m.Relation("inproceedings")
	for i := 1; i <= 5; i++ {
		name := "author_" + string(rune('0'+i))
		if !hasColumn(in, name) {
			t.Errorf("inproceedings missing split column %s: %v", name, colNames(in))
		}
	}
	// Overflow relation still exists with the author column.
	au := m.Relation("author")
	if au == nil || !hasColumn(au, "author") {
		t.Fatal("author overflow relation missing")
	}
	// Homes: author leaf under inproceedings has 5 occurrence homes in
	// inproceedings plus an overflow home; author under book has one
	// home in the shared author relation.
	var inprocAuthor, bookAuthor *schema.Node
	for _, n := range tr.ElementsNamed("author") {
		if n.ElementParent().Name == "inproceedings" {
			inprocAuthor = n
		} else {
			bookAuthor = n
		}
	}
	homes := m.Homes(inprocAuthor.ID)
	occ, over := 0, 0
	for _, h := range homes {
		if h.Occurrence > 0 {
			occ++
		}
		if h.Overflow {
			over++
		}
	}
	if occ != 5 || over != 1 {
		t.Errorf("inproc author homes: occ=%d over=%d (%+v)", occ, over, homes)
	}
	bh := m.Homes(bookAuthor.ID)
	if len(bh) != 1 || bh[0].Rel.Name != "author" || bh[0].Overflow {
		t.Errorf("book author homes = %+v", bh)
	}
}

func TestCompileChoiceDistribution(t *testing.T) {
	tr := schema.Movie()
	movie := tr.ElementsNamed("movie")[0]
	choice := tr.ElementsNamed("box_office")[0].UnderChoice()
	movie.Distributions = []schema.Distribution{{Choice: choice.ID}}
	m, err := Compile(tr)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	mb := m.Relation("movie_box_office")
	ms := m.Relation("movie_seasons")
	if mb == nil || ms == nil {
		t.Fatalf("partition relations missing: %v", relationNames(m))
	}
	if !hasColumn(mb, "box_office") || hasColumn(mb, "seasons") {
		t.Errorf("movie_box_office columns wrong: %v", colNames(mb))
	}
	if !hasColumn(ms, "seasons") || hasColumn(ms, "box_office") {
		t.Errorf("movie_seasons columns wrong: %v", colNames(ms))
	}
	// Shared scalar columns present in both.
	for _, c := range []string{"title", "year", "genre"} {
		if !hasColumn(mb, c) || !hasColumn(ms, c) {
			t.Errorf("shared column %s missing from a partition", c)
		}
	}
	if got := len(m.RelationsOf("movie")); got != 2 {
		t.Errorf("movie partitions = %d, want 2", got)
	}
}

func TestCompileImplicitUnion(t *testing.T) {
	tr := schema.Movie()
	movie := tr.ElementsNamed("movie")[0]
	rating := tr.ElementsNamed("avg_rating")[0]
	movie.Distributions = []schema.Distribution{{Optionals: []int{rating.ID}}}
	m, err := Compile(tr)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	has := m.Relation("movie_has_avg_rating")
	no := m.Relation("movie_no_avg_rating")
	if has == nil || no == nil {
		t.Fatalf("implicit union partitions missing: %v", relationNames(m))
	}
	if !hasColumn(has, "avg_rating") {
		t.Error("has-partition missing avg_rating")
	}
	if hasColumn(no, "avg_rating") {
		t.Error("no-partition should drop avg_rating")
	}
}

func TestCompileCrossProductDistributions(t *testing.T) {
	tr := schema.Movie()
	movie := tr.ElementsNamed("movie")[0]
	choice := tr.ElementsNamed("box_office")[0].UnderChoice()
	rating := tr.ElementsNamed("avg_rating")[0]
	movie.Distributions = []schema.Distribution{
		{Choice: choice.ID},
		{Optionals: []int{rating.ID}},
	}
	m, err := Compile(tr)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if got := len(m.RelationsOf("movie")); got != 4 {
		t.Errorf("cross-product partitions = %d, want 4: %v", got, relationNames(m))
	}
}

// TestSignatureIgnoresDistributionOrder pins what schema.Tree.Signature
// does not promise. Two trees that distribute inproceedings on url and
// on cdrom, in opposite orders, share a signature, but Compile reads
// the distributions in order: the partitions are the same relations
// under names whose condition suffixes come in the other order.
func TestSignatureIgnoresDistributionOrder(t *testing.T) {
	compile := func(first, second string) (*schema.Tree, *Mapping) {
		tr := schema.DBLP()
		in := tr.ElementsNamed("inproceedings")[0]
		in.Distributions = []schema.Distribution{
			{Optionals: []int{tr.ElementsNamed(first)[0].ID}},
			{Optionals: []int{tr.ElementsNamed(second)[0].ID}},
		}
		m, err := Compile(tr)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		return tr, m
	}
	t1, m1 := compile("url", "cdrom")
	t2, m2 := compile("cdrom", "url")
	if t1.Signature() != t2.Signature() {
		t.Fatalf("signatures differ:\n%s\n%s", t1.Signature(), t2.Signature())
	}
	if m1.Relation("inproceedings_has_url_has_cdrom") == nil || m2.Relation("inproceedings_has_cdrom_has_url") == nil {
		t.Fatalf("partition names: %v and %v", relationNames(m1), relationNames(m2))
	}
	// With each name's condition suffixes sorted, the two mappings are
	// the same relations with the same columns.
	cond := regexp.MustCompile(`_(has|no)_[a-z]+`)
	canonical := func(m *Mapping) map[string][]string {
		out := make(map[string][]string)
		for _, r := range m.Relations {
			conds := cond.FindAllString(r.Name, -1)
			sort.Strings(conds)
			out[cond.ReplaceAllString(r.Name, "")+strings.Join(conds, "")] = colNames(r)
		}
		return out
	}
	if c1, c2 := canonical(m1), canonical(m2); !reflect.DeepEqual(c1, c2) {
		t.Errorf("the mappings differ beyond suffix order:\n%v\n%v", c1, c2)
	}
	if reflect.DeepEqual(relationNames(m1), relationNames(m2)) {
		t.Errorf("relation names no longer depend on distribution order: %v", relationNames(m1))
	}
}

func shredMovie(t *testing.T, tr *schema.Tree, nMovies int) (*Mapping, *rel.Database, *xmlgen.Doc) {
	t.Helper()
	base := schema.Movie()
	doc := xmlgen.GenerateMovie(base, xmlgen.MovieOptions{Movies: nMovies, Seed: 3})
	m, err := Compile(tr)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	db, err := Shred(m, doc)
	if err != nil {
		t.Fatalf("Shred: %v", err)
	}
	return m, db, doc
}

func TestShredMovieHybrid(t *testing.T) {
	tr := schema.Movie()
	m, db, doc := shredMovie(t, tr, 100)
	_ = m
	if got := db.Table("movie").RowCount(); got != 100 {
		t.Errorf("movie rows = %d, want 100", got)
	}
	// aka_title rows equal total occurrences in the document.
	want := 0
	doc.Root.Walk(func(e *xmlgen.Elem) {
		if e.Node.Name == "aka_title" {
			want++
		}
	})
	if got := db.Table("aka_title").RowCount(); got != want {
		t.Errorf("aka_title rows = %d, want %d", got, want)
	}
	// Every aka_title PID references a movie ID.
	movieIDs := make(map[int64]bool)
	mt := db.Table("movie")
	idIdx := mt.ColIndex(rel.IDColumn)
	for _, row := range mt.Rows() {
		movieIDs[row[idIdx].I] = true
	}
	at := db.Table("aka_title")
	pidIdx := at.ColIndex(rel.PIDColumn)
	for _, row := range at.Rows() {
		if !movieIDs[row[pidIdx].I] {
			t.Fatalf("dangling aka_title PID %d", row[pidIdx].I)
		}
	}
	// Root relation has exactly one row with NULL PID.
	rt := db.Table("movies")
	if rt.RowCount() != 1 || !rt.Rows()[0][rt.ColIndex(rel.PIDColumn)].Null {
		t.Error("root relation should have one row with NULL PID")
	}
}

func TestShredPartitionsRouteRows(t *testing.T) {
	tr := schema.Movie()
	movie := tr.ElementsNamed("movie")[0]
	choice := tr.ElementsNamed("box_office")[0].UnderChoice()
	movie.Distributions = []schema.Distribution{{Choice: choice.ID}}
	_, db, doc := shredMovie(t, tr, 200)
	nb := db.Table("movie_box_office").RowCount()
	ns := db.Table("movie_seasons").RowCount()
	if nb+ns != 200 {
		t.Fatalf("partition rows %d+%d != 200", nb, ns)
	}
	// Compare against the document's actual branch counts.
	wantB := 0
	doc.Root.Walk(func(e *xmlgen.Elem) {
		if e.Node.Name == "box_office" {
			wantB++
		}
	})
	if nb != wantB {
		t.Errorf("box_office partition rows = %d, want %d", nb, wantB)
	}
	// box_office column has no NULLs in its partition.
	bt := db.Table("movie_box_office")
	bi := bt.ColIndex("box_office")
	for _, row := range bt.Rows() {
		if row[bi].Null {
			t.Fatal("NULL box_office inside box_office partition")
		}
	}
}

func TestShredImplicitUnionRouting(t *testing.T) {
	tr := schema.Movie()
	movie := tr.ElementsNamed("movie")[0]
	rating := tr.ElementsNamed("avg_rating")[0]
	movie.Distributions = []schema.Distribution{{Optionals: []int{rating.ID}}}
	_, db, doc := shredMovie(t, tr, 200)
	nh := db.Table("movie_has_avg_rating").RowCount()
	nn := db.Table("movie_no_avg_rating").RowCount()
	if nh+nn != 200 {
		t.Fatalf("partition rows %d+%d != 200", nh, nn)
	}
	want := 0
	doc.Root.Walk(func(e *xmlgen.Elem) {
		if e.Node.Name == "avg_rating" {
			want++
		}
	})
	if nh != want {
		t.Errorf("has-partition rows = %d, want %d", nh, want)
	}
}

func TestShredRepetitionSplitOverflow(t *testing.T) {
	tr := schema.DBLP()
	for _, n := range tr.ElementsNamed("author") {
		if n.ElementParent().Name == "inproceedings" {
			n.SplitCount = 2
		}
	}
	base := schema.DBLP()
	doc := xmlgen.GenerateDBLP(base, xmlgen.DBLPOptions{Inproceedings: 150, Books: 20, Seed: 5})
	m, err := Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Shred(m, doc)
	if err != nil {
		t.Fatal(err)
	}
	// Total authors = split columns non-null + overflow rows + book authors.
	totalAuthors := 0
	bookAuthors := 0
	doc.Root.Walk(func(e *xmlgen.Elem) {
		if e.Node.Name == "author" {
			totalAuthors++
		}
	})
	doc.Root.Walk(func(e *xmlgen.Elem) {
		if e.Node.Name == "book" {
			for _, c := range e.Children {
				if c.Node.Name == "author" {
					bookAuthors++
				}
			}
		}
	})
	in := db.Table("inproceedings")
	inline := 0
	for _, col := range []string{"author_1", "author_2"} {
		ci := in.ColIndex(col)
		for _, row := range in.Rows() {
			if !row[ci].Null {
				inline++
			}
		}
	}
	overflowAndBook := db.Table("author").RowCount()
	if inline+overflowAndBook != totalAuthors {
		t.Errorf("inline(%d) + author-table(%d) != total authors (%d)", inline, overflowAndBook, totalAuthors)
	}
	if overflowAndBook < bookAuthors {
		t.Errorf("author table %d rows < book authors %d", overflowAndBook, bookAuthors)
	}
}

func TestShredFullySplit(t *testing.T) {
	tr := schema.Movie()
	schema.ApplyFullySplit(tr)
	_, db, doc := shredMovie(t, tr, 50)
	// Every element instance becomes exactly one row somewhere.
	instances := 0
	doc.Root.Walk(func(e *xmlgen.Elem) { instances++ })
	var rows int
	for _, tb := range db.Tables() {
		rows += tb.RowCount()
	}
	if rows != instances {
		t.Errorf("fully split rows = %d, want %d element instances", rows, instances)
	}
}

func TestDeriveStatsMatchesActual(t *testing.T) {
	tr := schema.Movie()
	movie := tr.ElementsNamed("movie")[0]
	choice := tr.ElementsNamed("box_office")[0].UnderChoice()
	rating := tr.ElementsNamed("avg_rating")[0]
	movie.Distributions = []schema.Distribution{
		{Choice: choice.ID},
		{Optionals: []int{rating.ID}},
	}
	for _, n := range tr.ElementsNamed("actor") {
		n.SplitCount = 3
	}
	base := schema.Movie()
	doc := xmlgen.GenerateMovie(base, xmlgen.MovieOptions{Movies: 500, Seed: 11})
	col := xmlgen.CollectStats(base, doc)
	m, err := Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	derived := DeriveStats(m, col)
	db, err := Shred(m, doc)
	if err != nil {
		t.Fatal(err)
	}
	actual := stats.FromDatabase(db)
	for _, r := range m.Relations {
		d, a := derived[r.Name], actual[r.Name]
		if d == nil || a == nil {
			t.Fatalf("missing stats for %s", r.Name)
		}
		if a.Rows == 0 {
			continue
		}
		relErr := math.Abs(float64(d.Rows-a.Rows)) / float64(a.Rows)
		// Presence independence for the cross product tolerates some
		// error; generator presence is independent so this is tight.
		if relErr > 0.25 && math.Abs(float64(d.Rows-a.Rows)) > 20 {
			t.Errorf("%s: derived rows %d vs actual %d (err %.2f)", r.Name, d.Rows, a.Rows, relErr)
		}
		// Row width should be in the right ballpark.
		if a.RowBytes > 0 && (d.RowBytes < a.RowBytes*0.5 || d.RowBytes > a.RowBytes*2) {
			t.Errorf("%s: derived rowBytes %.1f vs actual %.1f", r.Name, d.RowBytes, a.RowBytes)
		}
	}
	// Split column null fractions derived from cardinality histogram.
	for _, r := range m.RelationsOf("movie") {
		d := derived[r.Name]
		a := actual[r.Name]
		if a.Rows < 20 {
			continue
		}
		for _, cname := range []string{"actor_1", "actor_3"} {
			dc, ac := d.Col(cname), a.Col(cname)
			if dc == nil || ac == nil {
				t.Fatalf("%s missing %s stats", r.Name, cname)
			}
			if math.Abs(dc.NullFrac-ac.NullFrac) > 0.15 {
				t.Errorf("%s.%s: derived nullFrac %.2f vs actual %.2f", r.Name, cname, dc.NullFrac, ac.NullFrac)
			}
		}
	}
}

func TestSQLSchemaRendering(t *testing.T) {
	_, m := compileDBLP(t)
	s := m.SQLSchema()
	for _, want := range []string{"CREATE TABLE inproceedings", "CREATE TABLE author", "FOREIGN KEY (PID)"} {
		if !contains(s, want) {
			t.Errorf("SQLSchema missing %q", want)
		}
	}
}

func TestCompileRejectsDistributionOnMergedType(t *testing.T) {
	tr := schema.Movie()
	// Merge actor and director into one annotation, then try to
	// distribute on one of them.
	for _, n := range tr.ElementsNamed("actor") {
		n.Annotation = "person"
	}
	for _, n := range tr.ElementsNamed("director") {
		n.Annotation = "person"
	}
	// Distributions require choices/optionals below the anchor; fake an
	// empty-optional one to trigger the merged-type check first.
	tr.ElementsNamed("actor")[0].Distributions = []schema.Distribution{{Choice: 1}}
	if _, err := Compile(tr); err == nil {
		t.Error("want error for distribution on merged annotation")
	}
}

func relationNames(m *Mapping) []string {
	var out []string
	for _, r := range m.Relations {
		out = append(out, r.Name)
	}
	return out
}

func colNames(r *Relation) []string {
	var out []string
	for _, c := range r.Columns {
		out = append(out, c.Name)
	}
	return out
}

func hasColumn(r *Relation, name string) bool {
	for _, c := range r.Columns {
		if c.Name == name {
			return true
		}
	}
	return false
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
