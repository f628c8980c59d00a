package sqlast

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/rel"
)

func sampleQuery() *Query {
	id := &ColRef{Table: "inproc", Column: "ID"}
	title := &ColRef{Table: "inproc", Column: "title"}
	author := &ColRef{Table: "author", Column: "author"}
	return &Query{
		OrderBy: "ID",
		Branches: []*Select{
			{
				Items: []SelectItem{{Col: id, As: "ID"}, {Col: title, As: "title"}, {As: "author"}},
				From:  []string{"inproc"},
				Where: []Pred{{
					Kind: PredCompare, Op: OpEq,
					Col:   ColRef{Table: "inproc", Column: "booktitle"},
					Value: rel.Str("SIGMOD CONFERENCE"),
				}},
			},
			{
				Items: []SelectItem{{Col: id, As: "ID"}, {As: "title"}, {Col: author, As: "author"}},
				From:  []string{"inproc", "author"},
				Where: []Pred{
					{Kind: PredJoin,
						Left:  ColRef{Table: "author", Column: "PID"},
						Right: ColRef{Table: "inproc", Column: "ID"}},
					{Kind: PredCompare, Op: OpEq,
						Col:   ColRef{Table: "inproc", Column: "booktitle"},
						Value: rel.Str("SIGMOD CONFERENCE")},
				},
			},
		},
	}
}

func TestSQLRendering(t *testing.T) {
	q := sampleQuery()
	sql := q.SQL()
	for _, want := range []string{
		"SELECT inproc.ID, inproc.title",
		"NULL AS author",
		"UNION ALL",
		"author.PID = inproc.ID",
		"booktitle = 'SIGMOD CONFERENCE'",
		"ORDER BY ID",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL missing %q:\n%s", want, sql)
		}
	}
}

func TestValidateAcceptsSample(t *testing.T) {
	if err := sampleQuery().Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

// TestValidateAcceptsZeroBranches: a query with no branch — what the
// translator emits when a mapping proves it empty — is valid, ORDER BY
// included, and has no output columns.
func TestValidateAcceptsZeroBranches(t *testing.T) {
	q := &Query{OrderBy: "ID"}
	if err := q.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if cols := q.OutputColumns(); cols == nil || len(cols) != 0 {
		t.Errorf("OutputColumns = %#v, want an empty list", cols)
	}
}

func TestValidateRejections(t *testing.T) {
	t.Run("union incompatible widths", func(t *testing.T) {
		q := sampleQuery()
		q.Branches[1].Items = q.Branches[1].Items[:2]
		if err := q.Validate(); err == nil {
			t.Error("want error")
		}
	})
	t.Run("union incompatible names", func(t *testing.T) {
		q := sampleQuery()
		q.Branches[1].Items[1].As = "nope"
		if err := q.Validate(); err == nil {
			t.Error("want error")
		}
	})
	t.Run("column out of scope", func(t *testing.T) {
		q := sampleQuery()
		q.Branches[0].Items[1].Col.Table = "elsewhere"
		if err := q.Validate(); err == nil {
			t.Error("want error")
		}
	})
	t.Run("order by unknown column", func(t *testing.T) {
		q := sampleQuery()
		q.OrderBy = "nope"
		if err := q.Validate(); err == nil {
			t.Error("want error")
		}
	})
}

func TestCmpOpMatches(t *testing.T) {
	cases := []struct {
		op   CmpOp
		cmp  int
		want bool
	}{
		{OpEq, 0, true}, {OpEq, 1, false},
		{OpNe, 0, false}, {OpNe, -1, true},
		{OpLt, -1, true}, {OpLt, 0, false},
		{OpLe, 0, true}, {OpLe, 1, false},
		{OpGt, 1, true}, {OpGt, 0, false},
		{OpGe, 0, true}, {OpGe, -1, false},
	}
	for _, c := range cases {
		if got := c.op.Matches(c.cmp); got != c.want {
			t.Errorf("%v.Matches(%d) = %v", c.op, c.cmp, got)
		}
	}
}

func TestTablesAndColumnsOf(t *testing.T) {
	q := sampleQuery()
	tables := q.Tables()
	if len(tables) != 2 || tables[0] != "author" || tables[1] != "inproc" {
		t.Errorf("Tables = %v", tables)
	}
	cols := q.Branches[1].ColumnsOf("inproc")
	want := map[string]bool{"ID": true, "booktitle": true}
	for _, c := range cols {
		if !want[c] {
			t.Errorf("unexpected column %s", c)
		}
		delete(want, c)
	}
	if len(want) > 0 {
		t.Errorf("missing columns %v", want)
	}
}

// refColumnsOf is ColumnsOf deduplicated through a map, as it stood
// before it collected into a slice.
func refColumnsOf(s *Select, table string) []string {
	seen := make(map[string]bool)
	add := func(c ColRef) {
		if c.Table == table && c.Column != "" {
			seen[c.Column] = true
		}
	}
	for _, it := range s.Items {
		if it.Col != nil {
			add(*it.Col)
		}
	}
	for _, p := range s.Where {
		switch p.Kind {
		case PredCompare:
			add(p.Col)
		case PredJoin:
			add(p.Left)
			add(p.Right)
		case PredExists, PredOrExists:
			add(p.OuterCol)
			for _, c := range p.Cols {
				add(c)
			}
			if p.Table == table {
				if p.JoinCol != "" {
					seen[p.JoinCol] = true
				}
				if p.InnerCol != "" {
					seen[p.InnerCol] = true
				}
			}
		}
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// TestColumnsOfMatchesMapReference compares ColumnsOf with the map-based
// reference over random selects that reach every predicate kind, empty
// column names, a table the select never names (a non-nil empty
// result), and more distinct columns than ColumnsOf's stack buffer.
func TestColumnsOfMatchesMapReference(t *testing.T) {
	tables := []string{"a", "b", "c"}
	cols := []string{"", "ID", "PID"}
	for i := 0; i < 20; i++ {
		cols = append(cols, fmt.Sprintf("c%d", i))
	}
	r := rand.New(rand.NewSource(3))
	ref := func() ColRef {
		return ColRef{Table: tables[r.Intn(len(tables))], Column: cols[r.Intn(len(cols))]}
	}
	refs := func() []ColRef {
		out := make([]ColRef, r.Intn(4))
		for i := range out {
			out[i] = ref()
		}
		return out
	}
	// Fixed cases first: nothing on the table, and a column that is both
	// an EXISTS join column and its inner column.
	selects := []*Select{
		{From: []string{"a"}},
		{From: []string{"a"}, Where: []Pred{{Kind: PredExists, Table: "b", JoinCol: "PID", InnerCol: "PID",
			OuterCol: ColRef{Table: "a", Column: "ID"}}}},
	}
	for len(selects) < 500 {
		s := &Select{From: tables}
		for i := r.Intn(40); i > 0; i-- {
			it := SelectItem{As: "x"}
			if r.Intn(3) > 0 {
				c := ref()
				it.Col = &c
			}
			s.Items = append(s.Items, it)
		}
		for i := r.Intn(12); i > 0; i-- {
			p := Pred{Kind: PredKind(r.Intn(5)), Col: ref(), Cols: refs(), Left: ref(), Right: ref(), OuterCol: ref(),
				Table: tables[r.Intn(len(tables))], JoinCol: ref().Column, InnerCol: ref().Column}
			s.Where = append(s.Where, p)
		}
		selects = append(selects, s)
	}
	wide := 0
	for si, s := range selects {
		for _, table := range append(tables, "d") {
			got, want := s.ColumnsOf(table), refColumnsOf(s, table)
			if got == nil {
				t.Fatalf("select %d table %s: nil result", si, table)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("select %d table %s: %v, want %v\n%s", si, table, got, want, s.SQL())
			}
			if len(got) > 16 {
				wide++
			}
		}
	}
	if got := selects[1].ColumnsOf("b"); !slices.Equal(got, []string{"PID"}) {
		t.Errorf("EXISTS join column that is also its inner column: %v, want [PID]", got)
	}
	if wide == 0 {
		t.Error("no select names more columns of one table than the stack buffer holds")
	}
	s := sampleQuery().Branches[1]
	if allocs := testing.AllocsPerRun(100, func() { s.ColumnsOf("inproc") }); allocs != 1 {
		t.Errorf("ColumnsOf allocates %v objects, want 1 (the result)", allocs)
	}
}

func TestExistsPredicates(t *testing.T) {
	p := Pred{
		Kind: PredExists, Op: OpEq, Value: rel.Str("x"),
		Table: "author", JoinCol: "PID", InnerCol: "author",
		OuterCol: ColRef{Table: "inproc", Column: "ID"},
	}
	s := p.String()
	for _, want := range []string{"EXISTS", "author.PID = inproc.ID", "author.author = 'x'"} {
		if !strings.Contains(s, want) {
			t.Errorf("exists SQL missing %q: %s", want, s)
		}
	}
	or := Pred{
		Kind: PredOrExists, Op: OpEq, Value: rel.Str("x"),
		Cols:  []ColRef{{Table: "inproc", Column: "author_1"}, {Table: "inproc", Column: "author_2"}},
		Table: "author", JoinCol: "PID", InnerCol: "author",
		OuterCol: ColRef{Table: "inproc", Column: "ID"},
	}
	s = or.String()
	for _, want := range []string{"author_1 = 'x'", "OR", "EXISTS"} {
		if !strings.Contains(s, want) {
			t.Errorf("or-exists SQL missing %q: %s", want, s)
		}
	}
	// Branch.Tables must include the EXISTS inner table.
	sel := &Select{From: []string{"inproc"}, Where: []Pred{p}}
	tabs := sel.Tables()
	if len(tabs) != 2 {
		t.Errorf("Tables = %v", tabs)
	}
}

func TestSelectItemRendering(t *testing.T) {
	it := SelectItem{Col: &ColRef{Table: "t", Column: "c"}, As: "c"}
	if it.String() != "t.c" {
		t.Errorf("same-name alias should be omitted: %s", it.String())
	}
	it.As = "other"
	if it.String() != "t.c AS other" {
		t.Errorf("alias rendering: %s", it.String())
	}
}
