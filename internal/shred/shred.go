package shred

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/par"
	"repro/internal/rel"
	"repro/internal/schema"
	"repro/internal/xmlgen"
)

// Shred loads documents into a fresh relational database under the
// mapping. IDs are assigned from a single global counter in document
// order, so ORDER BY ID reconstructs document order across relations
// (the sorted outer-union invariant). The documents must reference the
// same node IDs as the mapping's tree (any transformed clone of the
// tree the documents were generated or parsed against qualifies,
// because logical transformations preserve node identity).
//
// The mapping is first compiled into a plan (see shredder): everything
// a row needs that depends on the mapping alone is looked up once, and
// the state of the open element instances lives in arrays indexed by
// schema node ID, so shredding allocates nothing per row beyond what
// AppendRow keeps.
//
// The load runs on min(GOMAXPROCS, relations) workers, each of which
// owns a disjoint set of tables (owners). Every worker walks every
// document with its own shredder and ID counter, so all of them assign
// the same IDs and pick the same partitions, but a worker builds and
// appends only the rows of the tables it owns. Each table therefore gets
// exactly the rows, in exactly the order, of a one-worker load, and the
// worker count changes nothing but speed. A worker sees only its own
// tables' row errors, so when any worker fails the load is walked again
// by one worker owning every table, and Shred returns that walk's error:
// the first the documents meet in order. A worker's panic is raised
// again on the caller's goroutine (par.Do).
func Shred(m *Mapping, docs ...*xmlgen.Doc) (*rel.Database, error) {
	for i, d := range docs {
		if d == nil || d.Root == nil {
			return nil, fmt.Errorf("shred: document %d has no root", i)
		}
	}
	k := max(1, min(runtime.GOMAXPROCS(0), len(m.Relations)))
	db, err := shredOn(m, docs, k)
	if err != nil && k > 1 {
		db, err = shredOn(m, docs, 1)
	}
	return db, err
}

// shredOn loads docs into a fresh database on k ≥ 1 workers.
func shredOn(m *Mapping, docs []*xmlgen.Doc, k int) (*rel.Database, error) {
	db := rel.NewDatabase()
	owned := make([]map[*Relation]*rel.Table, k)
	for w := range owned {
		owned[w] = make(map[*Relation]*rel.Table)
	}
	for i, w := range owners(m, k) {
		r := m.Relations[i]
		t := rel.NewTable(r.Name, r.Columns)
		if r.ParentAnns[0] != "" {
			t.Parent = r.ParentAnns[0]
		}
		db.Add(t)
		owned[w][r] = t
	}
	err := par.Do(k, k, func(w int) error {
		s := newShredder(m, owned[w])
		for _, d := range docs {
			if err := s.instance(d.Root, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return db, nil
}

// owners assigns each of the mapping's relations, by index, to one of k
// workers: heaviest first, each to the least-loaded worker (the lowest
// on a tie). A relation weighs its column count with string columns
// counted twice, since a string cell also pays for Dict.Intern. The
// weight is static, so the assignment is a function of the mapping and
// k alone, and it affects only how evenly the workers share the load.
func owners(m *Mapping, k int) []int {
	order := make([]int, len(m.Relations))
	weight := make([]int, len(m.Relations))
	for i, r := range m.Relations {
		order[i] = i
		for _, c := range r.Columns {
			weight[i]++
			if c.Typ == rel.TString {
				weight[i]++
			}
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return weight[order[a]] > weight[order[b]] })
	owner := make([]int, len(m.Relations))
	load := make([]int, k)
	for _, i := range order {
		w := 0
		for v := range load {
			if load[v] < load[w] {
				w = v
			}
		}
		owner[i] = w
		load[w] += weight[i]
	}
	return owner
}

// planNode is what shredding needs of one schema node.
type planNode struct {
	node *schema.Node // nil where the tree has no node of this ID
	leaf bool
	// anc is the nearest annotated proper ancestor (AnnotatedAncestor).
	anc *schema.Node
	// rels are the partition relations of an annotated node's
	// annotation, in RelationsOf order, as rows of this node's
	// instances fill them.
	rels []relPlan
}

// relPlan is one relation as rows of one anchor's instances fill it.
type relPlan struct {
	r *Relation
	// table is the relation's table if this shredder owns it, else nil:
	// the rows of a table another worker owns are walked, not built.
	table *rel.Table
	// leaves[i] is the leaf node whose values fill value column i: the
	// anchor's own leaf among the column's LeafIDsFor (a type-merged
	// column has one per anchor). Unused for ID and PID.
	leaves []int
}

// shredder is the plan of one Shred worker and the state of the element
// instances open on the way down the document. values and present are
// indexed by schema node ID and hold what the open instances collected;
// valSet and presSet list, innermost instance last, the IDs whose entry
// an open instance set, and each instance resets exactly its own
// entries when it ends. That is sound because a tree node is never its
// own descendant: an instance nested in another collects only nodes at
// or below its own anchor, which the enclosing instance never sets. The
// two lists are separate because the entries are: a parent marks an
// annotated child present before the child's instance adds a value
// under the same ID.
type shredder struct {
	nodes   []planNode // by schema node ID
	nextID  int64
	values  [][]rel.Value
	present []bool
	valSet  []int
	presSet []int
	scratch []rel.Value  // reused across rows; AppendRow copies, never retains
	over    [1]rel.Value // an overflow row's one value
}

// newShredder compiles the plan of a worker that writes the tables of
// owned, keyed by relation.
func newShredder(m *Mapping, owned map[*Relation]*rel.Table) *shredder {
	maxID := 0
	m.Tree.Walk(func(n *schema.Node) { maxID = max(maxID, n.ID) })
	s := &shredder{
		nodes:   make([]planNode, maxID+1),
		values:  make([][]rel.Value, maxID+1),
		present: make([]bool, maxID+1),
	}
	var walk func(n, anc *schema.Node)
	walk = func(n, anc *schema.Node) {
		p := &s.nodes[n.ID]
		p.node, p.leaf, p.anc = n, n.IsLeaf(), anc
		if n.Kind == schema.KindElement && n.Annotation != "" {
			for _, r := range m.RelationsOf(n.Annotation) {
				p.rels = append(p.rels, relPlan{r: r, table: owned[r], leaves: anchorLeaves(m, r, n)})
			}
			anc = n
		}
		for _, c := range n.Children {
			walk(c, anc)
		}
	}
	walk(m.Tree.Root, nil)
	return s
}

// anchorLeaves returns, per column of r, the leaf whose values fill it
// in rows of the anchor's instances: the column's LeafID unless another
// of its LeafIDsFor lies in the anchor's reach (the anchor itself for a
// leaf anchor, else a leaf whose nearest annotated ancestor it is).
func anchorLeaves(m *Mapping, r *Relation, anchor *schema.Node) []int {
	leaves := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		leaves[i] = c.LeafID
		for _, lid := range r.LeafIDsFor(i) {
			if n := m.Tree.Node(lid); n == anchor || n.AnnotatedAncestor() == anchor {
				leaves[i] = lid
				break
			}
		}
	}
	return leaves
}

// plan returns the plan node of a document element's schema node, or
// nil when the mapping's tree has no node of that ID.
func (s *shredder) plan(e *xmlgen.Elem) *planNode {
	if id := e.Node.ID; id >= 0 && id < len(s.nodes) && s.nodes[id].node != nil {
		return &s.nodes[id]
	}
	return nil
}

func (s *shredder) newID() int64 {
	s.nextID++
	return s.nextID
}

func (s *shredder) addValue(id int, v rel.Value) {
	if len(s.values[id]) == 0 {
		s.valSet = append(s.valSet, id)
	}
	s.values[id] = append(s.values[id], v)
}

func (s *shredder) markPresent(id int) {
	if !s.present[id] {
		s.present[id] = true
		s.presSet = append(s.presSet, id)
	}
}

// instance shreds one instance of an annotated element.
func (s *shredder) instance(e *xmlgen.Elem, parentID int64) error {
	p := s.plan(e)
	if p == nil {
		return fmt.Errorf("shred: document node %s (id %d) not in mapping tree", e.Node.Name, e.Node.ID)
	}
	node := p.node
	if node.Annotation == "" {
		return fmt.Errorf("shred: instance() on unannotated element %s", node.Path())
	}
	id := s.newID()
	valMark, presMark := len(s.valSet), len(s.presSet)
	if p.leaf {
		s.addValue(node.ID, e.Value)
	} else if err := s.collect(e, node, id); err != nil {
		return err
	}
	rp, err := s.pickPartition(p)
	if err != nil {
		return err
	}
	if rp.table != nil {
		row, err := s.buildRow(rp, id, parentID, node, nil)
		if err != nil {
			return err
		}
		rp.table.AppendRow(row)
	}
	for _, lid := range s.valSet[valMark:] {
		s.values[lid] = s.values[lid][:0]
	}
	for _, nid := range s.presSet[presMark:] {
		s.present[nid] = false
	}
	s.valSet, s.presSet = s.valSet[:valMark], s.presSet[:presMark]
	return nil
}

// collect walks the instance subtree gathering inlined leaf values and
// element presence, recursing into annotated children as separate
// relation instances and routing repetition-split overflow.
func (s *shredder) collect(e *xmlgen.Elem, anchor *schema.Node, id int64) error {
	for _, c := range e.Children {
		cp := s.plan(c)
		if cp == nil {
			return fmt.Errorf("shred: document node %s not in mapping tree", c.Node.Name)
		}
		cn := cp.node
		s.markPresent(cn.ID)
		switch {
		case cn.Annotation != "" && cn.SplitCount > 0 && cp.anc == anchor:
			// Repetition split: the first k occurrences become columns
			// of the anchor's row; the rest go to the overflow table.
			if len(s.values[cn.ID]) < cn.SplitCount {
				s.addValue(cn.ID, c.Value)
			} else if err := s.overflow(cp, c, id); err != nil {
				return err
			}
		case cn.Annotation != "":
			if err := s.instance(c, id); err != nil {
				return err
			}
		case cp.leaf:
			s.addValue(cn.ID, c.Value)
		default:
			if err := s.collect(c, anchor, id); err != nil {
				return err
			}
		}
	}
	return nil
}

// overflow emits an overflow row for a repetition-split occurrence. Its
// relation's anchors are leaves, so the occurrence's value fills its one
// value column directly.
func (s *shredder) overflow(leaf *planNode, e *xmlgen.Elem, parentID int64) error {
	if len(leaf.rels) != 1 {
		return fmt.Errorf("shred: overflow relation for %s is partitioned", leaf.node.Path())
	}
	rp := &leaf.rels[0]
	oid := s.newID()
	if rp.table == nil {
		return nil
	}
	s.over[0] = e.Value
	row, err := s.buildRow(rp, oid, parentID, leaf.node, s.over[:])
	if err != nil {
		return err
	}
	rp.table.AppendRow(row)
	return nil
}

// pickPartition selects the partition relation an instance belongs to.
func (s *shredder) pickPartition(p *planNode) (*relPlan, error) {
	if len(p.rels) == 0 {
		return nil, fmt.Errorf("shred: no relation for annotation %q", p.node.Annotation)
	}
	if len(p.rels) == 1 && p.rels[0].r.Part == nil {
		return &p.rels[0], nil
	}
	for i := range p.rels {
		if s.partitionMatches(p.rels[i].r.Part) {
			return &p.rels[i], nil
		}
	}
	return nil, fmt.Errorf("shred: no partition of %q matches instance of %s", p.node.Annotation, p.node.Path())
}

func (s *shredder) partitionMatches(p *Partition) bool {
	if p == nil {
		return false
	}
	for _, cond := range p.Conds {
		if !s.condMatches(cond) {
			return false
		}
	}
	return true
}

func (s *shredder) condMatches(cond PartCond) bool {
	if cond.Dist.Choice != 0 {
		choice := s.nodes[cond.Dist.Choice].node
		return s.branchPresent(choice.Children[cond.Branch])
	}
	any := false
	for _, id := range cond.Dist.Optionals {
		if s.present[id] {
			any = true
			break
		}
	}
	if cond.Branch == 0 {
		return any
	}
	return !any
}

// branchPresent reports whether any element of the branch subtree is
// present in the instance.
func (s *shredder) branchPresent(branch *schema.Node) bool {
	if branch.Kind == schema.KindElement {
		return s.present[branch.ID]
	}
	for _, c := range branch.Children {
		if s.branchPresent(c) {
			return true
		}
	}
	return false
}

// buildRow materializes a relation row from collected leaf values into
// the shredder's scratch buffer. Every column index is assigned below,
// and AppendRow copies the slice into column vectors, so one buffer per
// shredder suffices for the whole load. A non-nil over holds an
// overflow row's values, which fill every value column.
func (s *shredder) buildRow(rp *relPlan, id, parentID int64, node *schema.Node, over []rel.Value) ([]rel.Value, error) {
	r := rp.r
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
			vs := over
			if vs == nil {
				vs = s.values[rp.leaves[i]]
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
				v = v.Coerce(c.Typ) // a NULL becomes NullOf(c.Typ)
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
