package shred

import (
	"flag"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rel"
	"repro/internal/schema"
	"repro/internal/transform"
	"repro/internal/xmlgen"
)

// This file keeps the first shredder as refShred, the oracle Shred is
// checked against: it built two maps per element instance and looked
// up every relation, table and column leaf per row, but its output is
// the definition of a correct load.

var oracleStride = flag.Int("shred.oracle_stride", 25,
	"TestShredMatchesReference checks every n-th two-step mapping (1 = all)")

// RefShred and DiffDatabases export the oracle to the fuzz test, which
// lives in package shred_test because difftest imports shred.
var (
	RefShred      = refShred
	DiffDatabases = diffDatabases
)

func refShred(m *Mapping, docs ...*xmlgen.Doc) (*rel.Database, error) {
	db := rel.NewDatabase()
	for _, r := range m.Relations {
		t := rel.NewTable(r.Name, r.Columns)
		if r.ParentAnns[0] != "" {
			t.Parent = r.ParentAnns[0]
		}
		db.Add(t)
	}
	s := &refShredder{m: m, db: db}
	for _, d := range docs {
		if err := s.instance(d.Root, 0); err != nil {
			return nil, err
		}
	}
	return db, nil
}

type refShredder struct {
	m       *Mapping
	db      *rel.Database
	nextID  int64
	scratch []rel.Value
}

func (s *refShredder) newID() int64 {
	s.nextID++
	return s.nextID
}

func (s *refShredder) instance(e *xmlgen.Elem, parentID int64) error {
	node := s.m.Tree.Node(e.Node.ID)
	if node == nil {
		return fmt.Errorf("shred: document node %s (id %d) not in mapping tree", e.Node.Name, e.Node.ID)
	}
	if node.Annotation == "" {
		return fmt.Errorf("shred: instance() on unannotated element %s", node.Path())
	}
	id := s.newID()
	values := make(map[int][]rel.Value)
	presence := make(map[int]bool)
	if node.IsLeaf() {
		values[node.ID] = append(values[node.ID], e.Value)
	} else if err := s.collect(e, node, id, values, presence); err != nil {
		return err
	}
	r, err := s.pickPartition(node, presence)
	if err != nil {
		return err
	}
	row, err := s.buildRow(r, id, parentID, values, node)
	if err != nil {
		return err
	}
	s.db.Table(r.Name).AppendRow(row)
	return nil
}

func (s *refShredder) collect(e *xmlgen.Elem, anchor *schema.Node, id int64,
	values map[int][]rel.Value, presence map[int]bool) error {
	for _, c := range e.Children {
		cn := s.m.Tree.Node(c.Node.ID)
		if cn == nil {
			return fmt.Errorf("shred: document node %s not in mapping tree", c.Node.Name)
		}
		presence[cn.ID] = true
		switch {
		case cn.Annotation != "" && cn.SplitCount > 0 && cn.AnnotatedAncestorIs(anchor):
			if len(values[cn.ID]) < cn.SplitCount {
				values[cn.ID] = append(values[cn.ID], c.Value)
			} else if err := s.overflow(cn, c, id); err != nil {
				return err
			}
		case cn.Annotation != "":
			if err := s.instance(c, id); err != nil {
				return err
			}
		case cn.IsLeaf():
			values[cn.ID] = append(values[cn.ID], c.Value)
		default:
			if err := s.collect(c, anchor, id, values, presence); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *refShredder) overflow(leaf *schema.Node, e *xmlgen.Elem, parentID int64) error {
	rels := s.m.RelationsOf(leaf.Annotation)
	if len(rels) != 1 {
		return fmt.Errorf("shred: overflow relation for %s is partitioned", leaf.Path())
	}
	r := rels[0]
	oid := s.newID()
	row, err := s.buildRow(r, oid, parentID, map[int][]rel.Value{leaf.ID: {e.Value}}, leaf)
	if err != nil {
		return err
	}
	s.db.Table(r.Name).AppendRow(row)
	return nil
}

func (s *refShredder) pickPartition(node *schema.Node, presence map[int]bool) (*Relation, error) {
	rels := s.m.RelationsOf(node.Annotation)
	if len(rels) == 0 {
		return nil, fmt.Errorf("shred: no relation for annotation %q", node.Annotation)
	}
	if len(rels) == 1 && rels[0].Part == nil {
		return rels[0], nil
	}
	for _, r := range rels {
		if s.partitionMatches(r.Part, presence) {
			return r, nil
		}
	}
	return nil, fmt.Errorf("shred: no partition of %q matches instance of %s", node.Annotation, node.Path())
}

func (s *refShredder) partitionMatches(p *Partition, presence map[int]bool) bool {
	if p == nil {
		return false
	}
	for _, cond := range p.Conds {
		if !s.condMatches(cond, presence) {
			return false
		}
	}
	return true
}

func (s *refShredder) condMatches(cond PartCond, presence map[int]bool) bool {
	if cond.Dist.Choice != 0 {
		choice := s.m.Tree.Node(cond.Dist.Choice)
		return refBranchPresent(choice.Children[cond.Branch], presence)
	}
	any := false
	for _, id := range cond.Dist.Optionals {
		if presence[id] {
			any = true
			break
		}
	}
	if cond.Branch == 0 {
		return any
	}
	return !any
}

func refBranchPresent(branch *schema.Node, presence map[int]bool) bool {
	if branch.Kind == schema.KindElement {
		return presence[branch.ID]
	}
	for _, c := range branch.Children {
		if refBranchPresent(c, presence) {
			return true
		}
	}
	return false
}

func (s *refShredder) buildRow(r *Relation, id, parentID int64, values map[int][]rel.Value, node *schema.Node) ([]rel.Value, error) {
	if cap(s.scratch) < len(r.Columns) {
		s.scratch = make([]rel.Value, len(r.Columns))
	}
	row := s.scratch[:len(r.Columns)]
	for i, c := range r.Columns {
		switch {
		case c.Name == rel.IDColumn:
			row[i] = rel.Int(id)
		case c.Name == rel.PIDColumn:
			if parentID == 0 {
				row[i] = rel.NullOf(rel.TInt)
			} else {
				row[i] = rel.Int(parentID)
			}
		default:
			vs := values[c.LeafID]
			if len(vs) == 0 {
				for _, lid := range r.LeafIDsFor(i) {
					if len(values[lid]) > 0 {
						vs = values[lid]
						break
					}
				}
			}
			var v rel.Value
			switch {
			case c.Occurrence == 0 && len(vs) > 1:
				return nil, fmt.Errorf("shred: %d values for scalar column %s.%s of %s",
					len(vs), r.Name, c.Name, node.Path())
			case c.Occurrence == 0 && len(vs) == 1:
				v = vs[0]
			case c.Occurrence > 0 && len(vs) >= c.Occurrence:
				v = vs[c.Occurrence-1]
			default:
				v = rel.NullOf(c.Typ)
			}
			if v.Typ != c.Typ {
				v = v.Coerce(c.Typ)
			}
			if v.Null && !c.Nullable {
				return nil, fmt.Errorf("shred: missing value for NOT NULL column %s.%s of %s",
					r.Name, c.Name, node.Path())
			}
			row[i] = v
		}
	}
	return row, nil
}

// diffDatabases returns "" when two loads are bit-identical — the same
// tables in the same order, each with the same Parent, Bytes() and
// snapshot (vectors, null bitmaps, dictionaries in code order; floats
// compared by bits, so NaN equals NaN) — and otherwise the first
// difference.
func diffDatabases(want, got *rel.Database) string {
	wt, gt := want.Tables(), got.Tables()
	if len(wt) != len(gt) {
		return fmt.Sprintf("%d tables, want %d", len(gt), len(wt))
	}
	for i, w := range wt {
		g := gt[i]
		if g.Name != w.Name || g.Parent != w.Parent || g.Bytes() != w.Bytes() {
			return fmt.Sprintf("table %d is %s (parent %q, %d bytes), want %s (parent %q, %d bytes)",
				i, g.Name, g.Parent, g.Bytes(), w.Name, w.Parent, w.Bytes())
		}
		ws, gs := bitSnapshot(w), bitSnapshot(g)
		if !reflect.DeepEqual(ws, gs) {
			return fmt.Sprintf("table %s: snapshots differ", w.Name)
		}
	}
	return ""
}

// bitSnapshot is a table's snapshot with each float vector replaced by
// its bit patterns.
func bitSnapshot(t *rel.Table) any {
	s := t.Snapshot()
	bits := make([][]uint64, len(s.Columns))
	for i := range s.Columns {
		c := &s.Columns[i]
		for _, f := range c.Floats {
			bits[i] = append(bits[i], math.Float64bits(f))
		}
		c.Floats = nil
	}
	return struct {
		S    *rel.TableSnapshot
		Bits [][]uint64
	}{s, bits}
}

// checkShredMatchesReference shreds docs under m with both shredders
// and fails unless they return the same error text or bit-identical
// tables.
func checkShredMatchesReference(t *testing.T, label string, m *Mapping, docs ...*xmlgen.Doc) {
	t.Helper()
	want, werr := refShred(m, docs...)
	got, gerr := Shred(m, docs...)
	switch {
	case werr != nil || gerr != nil:
		if fmt.Sprint(werr) != fmt.Sprint(gerr) {
			t.Fatalf("%s: Shred error %v, reference %v", label, gerr, werr)
		}
	default:
		if d := diffDatabases(want, got); d != "" {
			t.Fatalf("%s: %s", label, d)
		}
	}
}

// TestShredMatchesReference loads DBLP and Movie under hybrid inlining,
// under every single transformation of it, and under every
// -shred.oracle_stride-th two-step sequence, with both shredders.
func TestShredMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		mk   func() *schema.Tree
		doc  *xmlgen.Doc
	}{
		{"dblp", schema.DBLP, xmlgen.GenerateDBLP(schema.DBLP(), xmlgen.DBLPOptions{Inproceedings: 400, Books: 60, Seed: 7})},
		{"movie", schema.Movie, xmlgen.GenerateMovie(schema.Movie(), xmlgen.MovieOptions{Movies: 300, Seed: 8})},
	}
	for _, tc := range cases {
		col := xmlgen.CollectStats(tc.mk(), tc.doc)
		mappings, checked := 0, 0
		check := func(label string, tree *schema.Tree) {
			mappings++
			m, err := Compile(tree)
			if err != nil {
				return
			}
			checked++
			checkShredMatchesReference(t, label, m, tc.doc)
		}
		hybrid := tc.mk()
		check(tc.name+" hybrid", hybrid)
		twoSteps := 0
		for _, t1 := range transform.EnumerateAll(hybrid, col) {
			one, err := t1.Apply(hybrid)
			if err != nil {
				continue
			}
			check(tc.name+" "+t1.Key(), one)
			for _, t2 := range transform.EnumerateAll(one, col) {
				twoSteps++
				if (twoSteps-1)%*oracleStride != 0 {
					continue
				}
				if two, err := t2.Apply(one); err == nil {
					check(tc.name+" "+t1.Key()+" then "+t2.Key(), two)
				}
			}
		}
		t.Logf("%s: %d two-step sequences enumerated; %d mappings applied, %d compiled and compared",
			tc.name, twoSteps, mappings, checked)
	}
}

// TestShredErrorsMatchReference: a document node the mapping tree does
// not have (as the root and as a child) and a missing NOT NULL value
// fail with the reference shredder's error text.
func TestShredErrorsMatchReference(t *testing.T) {
	tr := schema.Movie()
	m, err := Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *xmlgen.Doc {
		return xmlgen.GenerateMovie(schema.Movie(), xmlgen.MovieOptions{Movies: 5, Seed: 9})
	}
	stranger := &schema.Node{ID: 1 << 20, Kind: schema.KindElement, Name: "stranger"}

	rootless := fresh()
	rootless.Root = &xmlgen.Elem{Node: stranger}
	childless := fresh()
	movie := childless.Root.Children[0]
	movie.Children = append(movie.Children, &xmlgen.Elem{Node: stranger})
	titleless := fresh()
	movie = titleless.Root.Children[1]
	for i, c := range movie.Children {
		if c.Node.Name == "title" {
			movie.Children = append(movie.Children[:i:i], movie.Children[i+1:]...)
			break
		}
	}

	for _, tc := range []struct {
		name string
		doc  *xmlgen.Doc
		want string
	}{
		{"root not in tree", rootless, "document node stranger (id 1048576) not in mapping tree"},
		{"child not in tree", childless, "document node stranger not in mapping tree"},
		{"missing NOT NULL value", titleless, "missing value for NOT NULL column movie.title"},
	} {
		_, err := Shred(m, tc.doc)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Shred error %v, want one containing %q", tc.name, err, tc.want)
		}
		checkShredMatchesReference(t, tc.name, m, tc.doc)
	}
}

// TestLeafIDsForDeterministic: on a type-merged relation (DBLP's author,
// anchored under inproceedings and book), LeafIDsFor returns the same
// ascending slice on every call.
func TestLeafIDsForDeterministic(t *testing.T) {
	_, m := compileDBLP(t)
	au := m.Relation("author")
	ci := len(au.Columns) - 1 // the value column, after ID and PID
	first := au.LeafIDsFor(ci)
	if len(first) != 2 || first[0] >= first[1] {
		t.Fatalf("LeafIDsFor(%d) = %v, want two ascending leaf IDs", ci, first)
	}
	for i := 0; i < 100; i++ {
		if got := au.LeafIDsFor(ci); !reflect.DeepEqual(got, first) {
			t.Fatalf("call %d: LeafIDsFor(%d) = %v, first call %v", i, ci, got, first)
		}
	}
}

// BenchmarkShred loads DBLP at scale 1 under hybrid inlining.
func BenchmarkShred(b *testing.B) {
	tree := schema.DBLP()
	doc := xmlgen.GenerateDBLP(tree, xmlgen.DefaultDBLPOptions())
	m, err := Compile(tree)
	if err != nil {
		b.Fatal(err)
	}
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := Shred(m, doc)
		if err != nil {
			b.Fatal(err)
		}
		rows = 0
		for _, tb := range db.Tables() {
			rows += tb.RowCount()
		}
	}
	b.ReportMetric(float64(rows), "rows/op")
}
