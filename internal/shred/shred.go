package shred

import (
	"fmt"

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
func Shred(m *Mapping, docs ...*xmlgen.Doc) (*rel.Database, error) {
	db := rel.NewDatabase()
	for _, r := range m.Relations {
		t := rel.NewTable(r.Name, r.Columns)
		if r.ParentAnns[0] != "" {
			t.Parent = r.ParentAnns[0]
		}
		db.Add(t)
	}
	s := &shredder{m: m, db: db}
	for _, d := range docs {
		if err := s.instance(d.Root, 0); err != nil {
			return nil, err
		}
	}
	return db, nil
}

type shredder struct {
	m       *Mapping
	db      *rel.Database
	nextID  int64
	scratch []rel.Value // reused across rows; AppendRow copies, never retains
}

func (s *shredder) newID() int64 {
	s.nextID++
	return s.nextID
}

// instance shreds one instance of an annotated element.
func (s *shredder) instance(e *xmlgen.Elem, parentID int64) error {
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

// collect walks the instance subtree gathering inlined leaf values and
// element presence, recursing into annotated children as separate
// relation instances and routing repetition-split overflow.
func (s *shredder) collect(e *xmlgen.Elem, anchor *schema.Node, id int64,
	values map[int][]rel.Value, presence map[int]bool) error {
	for _, c := range e.Children {
		cn := s.m.Tree.Node(c.Node.ID)
		if cn == nil {
			return fmt.Errorf("shred: document node %s not in mapping tree", c.Node.Name)
		}
		presence[cn.ID] = true
		switch {
		case cn.Annotation != "" && cn.SplitCount > 0 && cn.AnnotatedAncestorIs(anchor):
			// Repetition split: the first k occurrences become columns
			// of the anchor's row; the rest go to the overflow table.
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

// overflow emits an overflow row for a repetition-split occurrence.
func (s *shredder) overflow(leaf *schema.Node, e *xmlgen.Elem, parentID int64) error {
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

// pickPartition selects the partition relation an instance belongs to.
func (s *shredder) pickPartition(node *schema.Node, presence map[int]bool) (*Relation, error) {
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

func (s *shredder) partitionMatches(p *Partition, presence map[int]bool) bool {
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

func (s *shredder) condMatches(cond PartCond, presence map[int]bool) bool {
	if cond.Dist.Choice != 0 {
		choice := s.m.Tree.Node(cond.Dist.Choice)
		branch := choice.Children[cond.Branch]
		return branchPresent(branch, presence)
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

// branchPresent reports whether any element of the branch subtree is
// present in the instance.
func branchPresent(branch *schema.Node, presence map[int]bool) bool {
	if branch.Kind == schema.KindElement {
		return presence[branch.ID]
	}
	for _, c := range branch.Children {
		if branchPresent(c, presence) {
			return true
		}
	}
	return false
}

// buildRow materializes a relation row from collected leaf values into
// the shredder's scratch buffer. Every column index is assigned below,
// and AppendRow copies the slice into column vectors, so one buffer per
// shredder suffices for the whole load.
func (s *shredder) buildRow(r *Relation, id, parentID int64, values map[int][]rel.Value, node *schema.Node) ([]rel.Value, error) {
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
				// Type-merged relations: the column may host several
				// anchors' leaves; find the one this instance carries.
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
