package translate

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/sqlast"
	"repro/internal/xpath"
)

func compile(t *testing.T, tree *schema.Tree) *shred.Mapping {
	t.Helper()
	m, err := shred.Compile(tree)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// translateShaped is Translate, failing the test when a branch of the
// translation has a shape sqlast.CheckShape refuses: the optimizer and
// the executors take only the shapes it passes.
func translateShaped(t *testing.T, m *shred.Mapping, q *xpath.Query) (*sqlast.Query, error) {
	t.Helper()
	sql, err := Translate(m, q)
	if err == nil {
		for i, s := range sql.Branches {
			if serr := s.CheckShape(); serr != nil {
				t.Fatalf("%s: branch %d: %v", q, i, serr)
			}
		}
	}
	return sql, err
}

func TestTranslateIntroExampleShape(t *testing.T) {
	// Mapping 1 of Section 1.1: the translated SQL must be the sorted
	// outer union of the paper.
	m := compile(t, schema.DBLP())
	q := xpath.MustParse(`/dblp/inproceedings[booktitle = "SIGMOD CONFERENCE"]/(title | year | author)`)
	sql, err := translateShaped(t, m, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(sql.Branches) != 2 {
		t.Fatalf("branches = %d, want 2 (main + author join)", len(sql.Branches))
	}
	text := sql.SQL()
	for _, want := range []string{
		"booktitle = 'SIGMOD CONFERENCE'",
		"UNION ALL",
		"author.PID = inproceedings.ID",
		"ORDER BY ID",
		"NULL AS author",
		"NULL AS title",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("SQL missing %q:\n%s", want, text)
		}
	}
	if err := sql.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestTranslateRepetitionSplitShape(t *testing.T) {
	// Mapping 2: the main branch carries author_1..k columns and the
	// overflow branch joins the author table.
	tree := schema.DBLP()
	for _, n := range tree.ElementsNamed("author") {
		if n.ElementParent().Name == "inproceedings" {
			n.SplitCount = 5
		}
	}
	m := compile(t, tree)
	q := xpath.MustParse(`/dblp/inproceedings[booktitle = "SIGMOD CONFERENCE"]/(title | year | author)`)
	sql, err := translateShaped(t, m, q)
	if err != nil {
		t.Fatal(err)
	}
	text := sql.SQL()
	for _, want := range []string{"author_1", "author_5", "author.PID = inproceedings.ID"} {
		if !strings.Contains(text, want) {
			t.Errorf("SQL missing %q:\n%s", want, text)
		}
	}
	// Output schema: ID + title + year + author__1..5 + author (the
	// overflow slot).
	if got := len(sql.OutputColumns()); got != 9 {
		t.Errorf("output columns = %d (%v), want 8", got, sql.OutputColumns())
	}
}

func TestTranslatePartitionPruning(t *testing.T) {
	// //movie/year with an implicit union on year reads only the
	// has-year partition (the paper's Q1 example).
	tree := schema.Movie()
	movie := tree.ElementsNamed("movie")[0]
	lang := tree.ElementsNamed("language")[0]
	movie.Distributions = []schema.Distribution{{Optionals: []int{lang.ID}}}
	m := compile(t, tree)

	q := xpath.MustParse(`//movie/language`)
	sql, err := translateShaped(t, m, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(sql.Branches) != 1 {
		t.Fatalf("branches = %d, want 1 (no-language partition pruned):\n%s", len(sql.Branches), sql.SQL())
	}
	if sql.Branches[0].From[0] != "movie_has_language" {
		t.Errorf("branch reads %s", sql.Branches[0].From[0])
	}
	// A query on a column present in both partitions reads both.
	q2 := xpath.MustParse(`//movie/title`)
	sql2, err := translateShaped(t, m, q2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sql2.Branches) != 2 {
		t.Errorf("branches = %d, want 2:\n%s", len(sql2.Branches), sql2.SQL())
	}
}

func TestTranslateSelectionPruning(t *testing.T) {
	// Selection on a choice branch prunes partitions of the other
	// branch entirely.
	tree := schema.Movie()
	movie := tree.ElementsNamed("movie")[0]
	choice := tree.ElementsNamed("box_office")[0].UnderChoice()
	movie.Distributions = []schema.Distribution{{Choice: choice.ID}}
	m := compile(t, tree)
	q := xpath.MustParse(`//movie[box_office >= 1000]/(title | year)`)
	sql, err := translateShaped(t, m, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range sql.Branches {
		for _, tab := range b.Tables() {
			if strings.Contains(tab, "seasons") {
				t.Errorf("seasons partition not pruned:\n%s", sql.SQL())
			}
		}
	}
}

func TestTranslateSplitSelection(t *testing.T) {
	tree := schema.DBLP()
	for _, n := range tree.ElementsNamed("author") {
		if n.ElementParent().Name == "inproceedings" {
			n.SplitCount = 2
		}
	}
	m := compile(t, tree)
	q := xpath.MustParse(`//inproceedings[author = "x"]/title`)
	sql, err := translateShaped(t, m, q)
	if err != nil {
		t.Fatal(err)
	}
	text := sql.SQL()
	for _, want := range []string{"author_1 = 'x'", "OR", "EXISTS"} {
		if !strings.Contains(text, want) {
			t.Errorf("split selection missing %q:\n%s", want, text)
		}
	}
}

func TestTranslateChildSelectionUsesExists(t *testing.T) {
	m := compile(t, schema.DBLP())
	q := xpath.MustParse(`//inproceedings[author = "x"]/title`)
	sql, err := translateShaped(t, m, q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql.SQL(), "EXISTS") {
		t.Errorf("set-valued selection should use EXISTS:\n%s", sql.SQL())
	}
}

func TestTranslateMultipleContexts(t *testing.T) {
	// //title resolves to both the inlined inproceedings title and the
	// outlined book title (title1 relation).
	m := compile(t, schema.DBLP())
	q := xpath.MustParse(`//title`)
	sql, err := translateShaped(t, m, q)
	if err != nil {
		t.Fatal(err)
	}
	text := sql.SQL()
	if !strings.Contains(text, "inproceedings") || !strings.Contains(text, "title1") {
		t.Errorf("multi-context translation incomplete:\n%s", text)
	}
}

func TestTranslateBareContext(t *testing.T) {
	m := compile(t, schema.Movie())
	q := xpath.MustParse(`//movie`)
	sql, err := translateShaped(t, m, q)
	if err != nil {
		t.Fatal(err)
	}
	cols := sql.OutputColumns()
	// Single-valued leaves projected; set-valued (aka_title etc.) not.
	joined := strings.Join(cols, ",")
	if !strings.Contains(joined, "title") || !strings.Contains(joined, "year") {
		t.Errorf("bare context columns: %v", cols)
	}
	if strings.Contains(joined, "aka_title") {
		t.Errorf("bare context should not project set-valued leaves: %v", cols)
	}
}

func TestTranslateErrors(t *testing.T) {
	m := compile(t, schema.Movie())
	cases := []string{
		`//nonexistent/title`,
		`//movie/nonexistent`,
		`//movie[nonexistent = "x"]/title`,
	}
	for _, qs := range cases {
		if _, err := translateShaped(t, m, xpath.MustParse(qs)); err == nil {
			t.Errorf("%s: want error", qs)
		}
	}
}

// TestTranslateUnsupportedKinds reaches every refusal Kind and checks
// the refusal is an *Unsupported carrying it.
func TestTranslateUnsupportedKinds(t *testing.T) {
	orders := func(t *testing.T) *schema.Tree {
		tree, err := schema.ParseXSDString(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
		 <xs:element name="orders"><xs:complexType><xs:sequence>
		  <xs:element name="order" minOccurs="0" maxOccurs="unbounded"><xs:complexType><xs:sequence>
		   <xs:element name="customer" type="xs:string"/>
		   <xs:element name="item" minOccurs="0" maxOccurs="unbounded"><xs:complexType><xs:sequence>
		    <xs:element name="sku" type="xs:string"/>
		    <xs:element name="note" type="xs:string" minOccurs="0"/>
		   </xs:sequence></xs:complexType></xs:element>
		  </xs:sequence></xs:complexType></xs:element>
		  <xs:element name="shipment" minOccurs="0" maxOccurs="unbounded"><xs:complexType><xs:sequence>
		   <xs:element name="order" minOccurs="0"><xs:complexType><xs:sequence>
		    <xs:element name="carrier" type="xs:string"/>
		   </xs:sequence></xs:complexType></xs:element>
		  </xs:sequence></xs:complexType></xs:element>
		 </xs:sequence></xs:complexType></xs:element>
		</xs:schema>`)
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	cases := []struct {
		name  string
		tree  func(t *testing.T) *schema.Tree
		query string
		want  UnsupportedKind
	}{
		{"projection resolves to nothing", func(*testing.T) *schema.Tree { return schema.Movie() },
			`//movie/nonexistent`, PathNotUnique},
		{"selection resolves to nothing", func(*testing.T) *schema.Tree { return schema.Movie() },
			`//movie[nonexistent = "x"]/title`, PathNotUnique},
		{"projection two levels down", orders, `//orders/(order/item/sku)`, MultiLevelPath},
		{"selection two levels down", orders, `//orders[order/item/sku = "x"]/(order/customer)`, MultiLevelPath},
		{"selection on a partitioned child", func(t *testing.T) *schema.Tree {
			tree := orders(t)
			item := tree.ElementsNamed("item")[0]
			item.Distributions = []schema.Distribution{{Optionals: []int{tree.ElementsNamed("note")[0].ID}}}
			return tree
		}, `//order[item/sku = "x"]/customer`, PartitionedChildSelection},
		{"contexts with different projections", orders, `//order`, IncompatibleContexts},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := translateShaped(t, compile(t, tc.tree(t)), xpath.MustParse(tc.query))
			var un *Unsupported
			if !errors.As(err, &un) || un.Kind != tc.want {
				t.Fatalf("%s: error %v, want an Unsupported of kind %d", tc.query, err, tc.want)
			}
		})
	}

	// No tree Compile accepts partitions the overflow relation of a
	// repetition split (a leaf carries no distribution), so the guard is
	// reached by re-annotating the split leaf after compiling: its
	// overflow relations become the two movie partitions.
	t.Run("split selection with partitioned overflow", func(t *testing.T) {
		tree := schema.Movie()
		aka := tree.ElementsNamed("aka_title")[0]
		aka.SplitCount = 2
		rating := tree.ElementsNamed("avg_rating")[0]
		tree.ElementsNamed("movie")[0].Distributions = []schema.Distribution{{Optionals: []int{rating.ID}}}
		m := compile(t, tree)
		aka.Annotation = "movie"
		_, err := translateShaped(t, m, xpath.MustParse(`//movie[aka_title = "x"]/title`))
		var un *Unsupported
		if !errors.As(err, &un) || un.Kind != PartitionedOverflowSelection {
			t.Fatalf("error %v, want an Unsupported of kind %d", err, PartitionedOverflowSelection)
		}
	})

	// Malformed queries are not refusals of a shape.
	if _, err := translateShaped(t, compile(t, schema.Movie()), xpath.MustParse(`//nonexistent/title`)); err == nil || errors.As(err, new(*Unsupported)) {
		t.Errorf("unknown context: error %v, want a plain error", err)
	}
}

// TestTranslateProvablyEmptyIsZeroBranches: when the mapping prunes
// every partition a query could read — a selection on one arm of a
// distributed choice projecting the other — the query provably returns
// nothing, and Translate says so with a valid query of zero branches,
// not a refusal.
func TestTranslateProvablyEmptyIsZeroBranches(t *testing.T) {
	tree := schema.Movie()
	choice := tree.ElementsNamed("box_office")[0].UnderChoice()
	tree.ElementsNamed("movie")[0].Distributions = []schema.Distribution{{Choice: choice.ID}}
	m := compile(t, tree)
	sql, err := translateShaped(t, m, xpath.MustParse(`//movie[box_office >= 1000]/seasons`))
	if err != nil {
		t.Fatal(err)
	}
	if len(sql.Branches) != 0 || sql.OrderBy != OutputID || sql.Validate() != nil {
		t.Fatalf("got %d branches, ORDER BY %q:\n%s", len(sql.Branches), sql.OrderBy, sql.SQL())
	}
	// One arm alone keeps its partition.
	if sql, err := translateShaped(t, m, xpath.MustParse(`//movie[box_office >= 1000]/title`)); err != nil || len(sql.Branches) == 0 {
		t.Fatalf("a query of one arm: %v, %+v", err, sql)
	}
}

func TestTranslateDeepProjection(t *testing.T) {
	// item/sku crosses exactly one relation boundary: supported.
	xsd := `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
	 <xs:element name="orders"><xs:complexType><xs:sequence>
	  <xs:element name="order" minOccurs="0" maxOccurs="unbounded"><xs:complexType><xs:sequence>
	   <xs:element name="customer" type="xs:string"/>
	   <xs:element name="item" minOccurs="0" maxOccurs="unbounded"><xs:complexType><xs:sequence>
	    <xs:element name="sku" type="xs:string"/>
	   </xs:sequence></xs:complexType></xs:element>
	  </xs:sequence></xs:complexType></xs:element>
	 </xs:sequence></xs:complexType></xs:element>
	</xs:schema>`
	tree, err := schema.ParseXSDString(xsd)
	if err != nil {
		t.Fatal(err)
	}
	m := compile(t, tree)
	q := xpath.MustParse(`//order[customer = "c"]/(item/sku)`)
	sql, err := translateShaped(t, m, q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql.SQL(), "item.PID = order.ID") {
		t.Errorf("deep projection join missing:\n%s", sql.SQL())
	}
	outs := sql.OutputColumns()
	if outs[1] != "item_sku" {
		t.Errorf("output name = %v", outs)
	}
}

func TestResolveContext(t *testing.T) {
	tree := schema.DBLP()
	if got := ResolveContext(tree, xpath.MustParse(`//author`).Context); len(got) != 2 {
		t.Errorf("//author resolves to %d nodes, want 2", len(got))
	}
	if got := ResolveContext(tree, xpath.MustParse(`/dblp/book`).Context); len(got) != 1 {
		t.Errorf("/dblp/book resolves to %d nodes", len(got))
	}
	if got := ResolveContext(tree, xpath.MustParse(`/book`).Context); len(got) != 0 {
		t.Errorf("/book (child axis from root) resolves to %d nodes, want 0", len(got))
	}
}
