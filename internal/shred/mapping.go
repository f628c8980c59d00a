// Package shred implements the XML-to-relational mapping of Section 2:
// compiling an annotated schema tree into a relational schema (mapping
// rules 1-3, extended with union-distribution partitions and
// repetition-split columns), shredding documents into that schema, and
// deriving per-table statistics for any mapping from the statistics
// collected once on the fully split schema (Section 4.1).
package shred

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/rel"
	"repro/internal/schema"
	"repro/internal/stats"
)

// Relation is one relational table of a mapping. A partitioned
// annotation (union distribution) compiles into several Relations that
// share the annotation.
type Relation struct {
	// Name is the table name (annotation plus partition suffixes).
	Name string
	// Ann is the annotation this relation stores instances of.
	Ann string
	// Anchors are the annotated schema nodes mapped here (several when
	// types are merged).
	Anchors []*schema.Node
	// ParentAnns are the annotations of the parent relations the PID
	// column references, in anchor order ("" for the root).
	ParentAnns []string
	// Columns are the table columns; Columns[0] is ID, Columns[1] PID.
	Columns []rel.Column
	// Part carries the partition conditions, nil when unpartitioned.
	Part *Partition

	colByLeaf map[leafKey]int
	leaves    []int // the leaf IDs of colByLeaf, ascending
}

type leafKey struct {
	leafID     int
	occurrence int
}

// PartCond fixes one distribution to a concrete branch.
type PartCond struct {
	// Dist is the distribution being fixed.
	Dist schema.Distribution
	// Branch selects the branch: for a choice distribution it is the
	// child index of the chosen branch; for an implicit union 0 means
	// "has at least one of the optionals" and 1 means "has none".
	Branch int
}

// Partition is the membership condition of one partition relation.
type Partition struct {
	// Conds has one entry per distribution on the anchor.
	Conds []PartCond
	// Excluded are element node IDs whose subtrees contribute no
	// columns to this partition (absent by construction).
	Excluded map[int]bool
}

// ColumnFor returns the column index storing the given leaf at the
// given occurrence, or -1.
func (r *Relation) ColumnFor(leafID, occurrence int) int {
	if i, ok := r.colByLeaf[leafKey{leafID, occurrence}]; ok {
		return i
	}
	return -1
}

// LeafIDsFor returns all leaf node IDs whose values land in the given
// column index, in ascending order: one per anchor for type-merged
// relations.
func (r *Relation) LeafIDsFor(colIdx int) []int {
	var out []int
	for k, i := range r.colByLeaf {
		if i == colIdx {
			out = append(out, k.leafID)
		}
	}
	slices.Sort(out)
	return out
}

// HasLeaf reports whether the relation stores the leaf at all.
func (r *Relation) HasLeaf(leafID int) bool {
	_, ok := slices.BinarySearch(r.leaves, leafID)
	return ok
}

// Home locates one column holding a leaf element's values.
type Home struct {
	// Rel is the hosting relation.
	Rel *Relation
	// Column is the column name.
	Column string
	// Occurrence is the 1-based repetition-split occurrence, or 0 for
	// scalar/value columns.
	Occurrence int
	// Overflow marks the overflow relation of a repetition-split leaf.
	Overflow bool
}

// Mapping is a compiled XML-to-relational mapping.
type Mapping struct {
	// Tree is the annotated schema tree the mapping was compiled from.
	Tree *schema.Tree
	// Relations lists all relations in document order of their anchors.
	Relations []*Relation

	// groups are the compiled annotation groups, in the order of
	// Relations: each contributes len(rels) consecutive relations.
	groups []*group
	byName map[string]*Relation
	byAnn  map[string][]*Relation
	homes  map[int][]Home
}

// Relation returns the relation with the given table name, or nil.
func (m *Mapping) Relation(name string) *Relation { return m.byName[name] }

// RelationsOf returns the partition relations of an annotation.
func (m *Mapping) RelationsOf(ann string) []*Relation { return m.byAnn[ann] }

// Homes returns the column homes of a leaf element node.
func (m *Mapping) Homes(leafID int) []Home { return m.homes[leafID] }

// HostRelations returns the relations hosting an element node's
// instances: its own relations if annotated, otherwise the relations of
// its nearest annotated ancestor.
func (m *Mapping) HostRelations(n *schema.Node) []*Relation {
	if n.Annotation != "" {
		return m.byAnn[n.Annotation]
	}
	anc := n.AnnotatedAncestor()
	if anc == nil {
		return nil
	}
	return m.byAnn[anc.Annotation]
}

// SQLSchema renders CREATE TABLE statements for display.
func (m *Mapping) SQLSchema() string {
	var b strings.Builder
	for _, r := range m.Relations {
		fmt.Fprintf(&b, "CREATE TABLE %s (", r.Name)
		for i, c := range r.Columns {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s %s", c.Name, c.TypeDecl())
		}
		if len(r.ParentAnns) > 0 && r.ParentAnns[0] != "" {
			fmt.Fprintf(&b, ", FOREIGN KEY (PID) REFERENCES %s(ID)", r.ParentAnns[0])
		}
		b.WriteString(");\n")
	}
	return b.String()
}

// Compile builds the relational mapping for an annotated schema tree
// per the mapping rules of Section 2, including partition relations for
// distributed unions and inline columns for repetition splits.
func Compile(t *schema.Tree) (*Mapping, error) { return compile(t, nil) }

// compile is Compile, taking each annotation's relations from memo
// when it holds them (nil: compile every annotation).
func compile(t *schema.Tree, memo *Memo) (*Mapping, error) {
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("shred: %w", err)
	}
	// Group anchors by annotation in document order.
	var anns []string
	anchors := make(map[string][]*schema.Node)
	t.Walk(func(n *schema.Node) {
		if n.Kind != schema.KindElement || n.Annotation == "" {
			return
		}
		if _, seen := anchors[n.Annotation]; !seen {
			anns = append(anns, n.Annotation)
		}
		anchors[n.Annotation] = append(anchors[n.Annotation], n)
	})
	m := &Mapping{
		Tree:   t,
		groups: make([]*group, 0, len(anns)),
		byName: make(map[string]*Relation),
		byAnn:  make(map[string][]*Relation, len(anns)),
	}
	// Compile (or look up) every group, checking relation names as
	// they come; byName holds the templates until bind.
	var key []byte
	nrels, nhomes := 0, 0
	for _, ann := range anns {
		var g *group
		var err error
		if memo != nil {
			g, key, err = memo.group(t, ann, anchors[ann], key)
		} else {
			g, err = compileGroup(t, ann, anchors[ann])
		}
		if err != nil {
			return nil, err
		}
		for _, tmpl := range g.rels {
			if _, dup := m.byName[tmpl.Name]; dup {
				return nil, fmt.Errorf("shred: duplicate relation name %q", tmpl.Name)
			}
			m.byName[tmpl.Name] = tmpl
		}
		m.groups = append(m.groups, g)
		nrels += len(g.rels)
		nhomes += len(g.homes)
	}
	// Bind them: the relations and the column homes each come from one
	// block.
	m.Relations = make([]*Relation, 0, nrels)
	m.homes = make(map[int][]Home, nhomes)
	rels := make([]Relation, nrels)
	homes := make([]Home, nhomes)
	for _, g := range m.groups {
		n := len(g.rels)
		m.bind(g, rels[:n:n], homes[:len(g.homes):len(g.homes)])
		rels, homes = rels[n:], homes[len(g.homes):]
	}
	return m, nil
}

// group is one annotation's compiled relations, held apart from any
// tree: its anchors are node IDs, and its relations are templates whose
// Anchors are nil. bind gives a mapping its own Relations, re-bound to
// the mapping's tree by ID; they share the template's Columns,
// ParentAnns, Part and column index, which nothing writes after
// compileGroup. A group a Memo holds is shared by every mapping of the
// search and by concurrent compilations.
type group struct {
	anchors []int
	rels    []*Relation
	// homes are the relations' column homes, leaf by leaf in the order
	// of each leaf's first home, and each leaf's in registration order.
	homes []leafHome
	// col is the Collection of the Memo that holds the group (nil for a
	// plain Compile): derived statistics are kept with the group only
	// for it. A mapping keeps its groups, so a group must not point back
	// at the Memo, which holds every group of the search.
	col *stats.Collection

	mu      sync.Mutex
	derived []derivedStats
}

// leafHome is a column home of a group: home's Rel is nil, and rel is
// the index of its relation in the group.
type leafHome struct {
	leafID int
	rel    int
	home   Home
	first  int // compileGroup's sort key: the index of the leaf's first home
}

// bind appends the group's relations to the mapping, rels and homes
// being the blocks to build them in: each relation is a copy of its
// template with Anchors taken from the mapping's tree by ID.
func (m *Mapping) bind(g *group, rels []Relation, homes []Home) {
	anchors := make([]*schema.Node, len(g.anchors))
	for i, id := range g.anchors {
		anchors[i] = m.Tree.Node(id)
	}
	for i, tmpl := range g.rels {
		r := &rels[i]
		*r = *tmpl
		r.Anchors = anchors
		m.Relations = append(m.Relations, r)
		m.byName[r.Name] = r
		m.byAnn[r.Ann] = append(m.byAnn[r.Ann], r)
	}
	for i, lh := range g.homes {
		homes[i] = lh.home
		homes[i].Rel = &rels[lh.rel]
	}
	for i := 0; i < len(g.homes); {
		j := i + 1
		for j < len(g.homes) && g.homes[j].leafID == g.homes[i].leafID {
			j++
		}
		leaf := g.homes[i].leafID
		if prev := m.homes[leaf]; prev != nil {
			// Homes in an earlier group too (a split leaf's occurrence
			// columns precede its overflow relation's): prev is cut
			// from the block with its capacity at its length, so append
			// copies it.
			m.homes[leaf] = append(prev, homes[i:j]...)
		} else {
			m.homes[leaf] = homes[i:j:j]
		}
		i = j
	}
}

// compileGroup compiles one annotation's relations from its anchors, in
// document order. It reads the anchors and their content down to the
// annotated elements below them (the frontier), each anchor's nearest
// annotated ancestor, and the anchors' distributions in order (the
// partition names follow that order); groupKey covers exactly these.
func compileGroup(t *schema.Tree, ann string, anchors []*schema.Node) (*group, error) {
	if len(anchors) > 1 {
		parents := make(map[*schema.Node]bool)
		for _, a := range anchors {
			if len(a.Distributions) > 0 {
				return nil, fmt.Errorf("shred: distribution on type-merged annotation %q is not supported", ann)
			}
			anc := a.AnnotatedAncestor()
			if parents[anc] {
				return nil, fmt.Errorf("shred: annotation %q merges siblings of one parent; rows would be indistinguishable", ann)
			}
			parents[anc] = true
		}
	}
	anchor := anchors[0]
	parts, err := expandPartitions(t, anchor)
	if err != nil {
		return nil, err
	}
	parentAnns := make([]string, len(anchors))
	g := &group{anchors: make([]int, len(anchors))}
	for i, a := range anchors {
		g.anchors[i] = a.ID
		if anc := a.AnnotatedAncestor(); anc != nil {
			parentAnns[i] = anc.Annotation
		}
	}
	var sig string
	var homes []leafHome
	for _, part := range parts {
		name := ann
		if part != nil {
			name = ann + partitionSuffix(t, part)
		}
		r := &Relation{
			Name:       name,
			Ann:        ann,
			ParentAnns: parentAnns,
			Part:       part,
			colByLeaf:  make(map[leafKey]int),
		}
		ri := len(g.rels)
		r.Columns = append(r.Columns,
			rel.Column{Name: rel.IDColumn, Typ: rel.TInt},
			rel.Column{Name: rel.PIDColumn, Typ: rel.TInt, Nullable: parentAnns[0] == ""},
		)
		// Columns from each anchor must agree for merged types.
		for ai, a := range anchors {
			cols, err := inlineColumns(t, a, part)
			if err != nil {
				return nil, err
			}
			if ai == 0 {
				for _, c := range cols {
					idx := len(r.Columns)
					r.Columns = append(r.Columns, c.col)
					r.colByLeaf[leafKey{c.leafID, c.col.Occurrence}] = idx
					homes = append(homes, leafHome{leafID: c.leafID, rel: ri, home: Home{Column: c.col.Name, Occurrence: c.col.Occurrence,
						Overflow: overflowHome(a, c)}})
				}
				if len(anchors) > 1 {
					sig = columnSignature(cols, a)
				}
			} else {
				if columnSignature(cols, a) != sig {
					return nil, fmt.Errorf("shred: annotation %q merges structurally different types (%s vs %s)",
						ann, anchors[0].Path(), a.Path())
				}
				// Columns align positionally (guaranteed by the
				// signature check); register homes for this anchor's
				// leaf IDs against the first anchor's column names.
				for i, c := range cols {
					ci := 2 + i // after ID and PID
					r.colByLeaf[leafKey{c.leafID, c.col.Occurrence}] = ci
					homes = append(homes, leafHome{leafID: c.leafID, rel: ri, home: Home{Column: r.Columns[ci].Name, Occurrence: c.col.Occurrence,
						Overflow: overflowHome(a, c)}})
				}
			}
		}
		for k := range r.colByLeaf {
			r.leaves = append(r.leaves, k.leafID)
		}
		slices.Sort(r.leaves)
		r.leaves = slices.Compact(r.leaves)
		g.rels = append(g.rels, r)
	}
	g.homes = homes
	if len(parts) > 1 {
		// Runs of one leaf, leaves in order of first home; one
		// relation registers a leaf's homes one after another.
		first := make(map[int]int)
		for i := range homes {
			h := &homes[i]
			if _, ok := first[h.leafID]; !ok {
				first[h.leafID] = i
			}
			h.first = first[h.leafID]
		}
		slices.SortStableFunc(g.homes, func(a, b leafHome) int { return a.first - b.first })
	}
	return g, nil
}

// overflowHome reports whether a column home is the overflow value
// column of a repetition-split leaf: the anchor is the split leaf
// itself and the column is its scalar value column.
func overflowHome(anchor *schema.Node, c inlineCol) bool {
	return anchor.IsLeaf() && c.leafID == anchor.ID && anchor.SplitCount > 0 && c.col.Occurrence == 0
}

type inlineCol struct {
	leafID int
	col    rel.Column
}

// columnSignature fingerprints an anchor's inline columns for merge
// compatibility. The anchor's own value column is name-agnostic (two
// merged leaf types may have different tag names, e.g. director and
// actor sharing a Person type).
func columnSignature(cols []inlineCol, anchor *schema.Node) string {
	var b strings.Builder
	for _, c := range cols {
		name := c.col.Name
		if c.leafID == anchor.ID {
			name = "$value"
		}
		fmt.Fprintf(&b, "%s:%d:%d;", name, c.col.Typ, c.col.Occurrence)
	}
	return b.String()
}

// inlineColumns walks an anchor's content and returns the columns
// inlined into its relation: the anchor's own value column if it is a
// leaf, scalar columns for reachable leaves with no annotated node in
// between, and occurrence columns for repetition-split children.
// Leaves under subtrees excluded by the partition are skipped.
func inlineColumns(t *schema.Tree, anchor *schema.Node, part *Partition) ([]inlineCol, error) {
	var out []inlineCol
	used := make(map[string]int)
	name := func(base string) string {
		// Attribute leaves ("@id") shed the marker for column names.
		base = strings.TrimPrefix(base, "@")
		n := used[base]
		used[base] = n + 1
		if n == 0 {
			return base
		}
		return fmt.Sprintf("%s_%d", base, n+1)
	}
	excluded := func(n *schema.Node) bool {
		if part == nil {
			return false
		}
		for p := n; p != nil && p != anchor; p = p.Parent {
			if part.Excluded[p.ID] {
				return true
			}
		}
		return false
	}
	if anchor.IsLeaf() {
		out = append(out, inlineCol{anchor.ID, rel.Column{
			Name: name(anchor.Name), Typ: leafType(anchor), LeafID: anchor.ID,
		}})
		return out, nil
	}
	var walk func(n *schema.Node, nullable bool) error
	walk = func(n *schema.Node, nullable bool) error {
		switch n.Kind {
		case schema.KindElement:
			if excluded(n) {
				return nil
			}
			if n.Annotation != "" {
				// Separate relation; but a repetition-split leaf also
				// contributes its first k occurrences as columns here.
				if n.SplitCount > 0 && n.AnnotatedAncestorIs(anchor) {
					for i := 1; i <= n.SplitCount; i++ {
						out = append(out, inlineCol{n.ID, rel.Column{
							Name:       name(fmt.Sprintf("%s_%d", n.Name, i)),
							Typ:        leafType(n),
							Nullable:   true,
							LeafID:     n.ID,
							Occurrence: i,
						}})
					}
				}
				return nil
			}
			if n.IsSetValued() {
				return fmt.Errorf("shred: set-valued element %s is unannotated", n.Path())
			}
			if n.IsLeaf() {
				out = append(out, inlineCol{n.ID, rel.Column{
					Name: name(n.Name), Typ: leafType(n), Nullable: nullable, LeafID: n.ID,
				}})
				return nil
			}
			for _, c := range n.Children {
				if err := walk(c, nullable); err != nil {
					return err
				}
			}
			return nil
		case schema.KindSimple:
			return nil
		case schema.KindOption, schema.KindChoice:
			for _, c := range n.Children {
				if err := walk(c, true); err != nil {
					return err
				}
			}
			return nil
		default: // sequence, repetition
			for _, c := range n.Children {
				if err := walk(c, nullable); err != nil {
					return err
				}
			}
			return nil
		}
	}
	for _, c := range anchor.Children {
		if err := walk(c, false); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func leafType(n *schema.Node) rel.Type {
	switch n.LeafBase() {
	case schema.BaseInt:
		return rel.TInt
	case schema.BaseFloat:
		return rel.TFloat
	default:
		return rel.TString
	}
}

// expandPartitions returns the cross product of the anchor's
// distributions; a nil element means "no partitioning".
func expandPartitions(t *schema.Tree, anchor *schema.Node) ([]*Partition, error) {
	if len(anchor.Distributions) == 0 {
		return []*Partition{nil}, nil
	}
	parts := []*Partition{{Excluded: make(map[int]bool)}}
	for _, d := range anchor.Distributions {
		// The partition keeps its own copy: it outlives the tree.
		d := schema.Distribution{Choice: d.Choice, Optionals: slices.Clone(d.Optionals)}
		var next []*Partition
		if d.Choice != 0 {
			choice := t.Node(d.Choice)
			if choice == nil {
				return nil, fmt.Errorf("shred: distribution references missing node %d", d.Choice)
			}
			for bi, branch := range choice.Children {
				for _, p := range parts {
					np := clonePartition(p)
					np.Conds = append(np.Conds, PartCond{Dist: d, Branch: bi})
					for bj, other := range choice.Children {
						if bj != bi {
							np.Excluded[contentKeyNode(other)] = true
						}
					}
					_ = branch
					next = append(next, np)
				}
			}
		} else {
			for _, p := range parts {
				has := clonePartition(p)
				has.Conds = append(has.Conds, PartCond{Dist: d, Branch: 0})
				next = append(next, has)
				none := clonePartition(p)
				none.Conds = append(none.Conds, PartCond{Dist: d, Branch: 1})
				for _, id := range d.Optionals {
					none.Excluded[id] = true
				}
				next = append(next, none)
			}
		}
		parts = next
	}
	return parts, nil
}

// contentKeyNode returns the node whose exclusion removes a choice
// branch: the branch node itself (exclusion checks walk ancestors).
func contentKeyNode(branch *schema.Node) int { return branch.ID }

func clonePartition(p *Partition) *Partition {
	np := &Partition{
		Conds:    append([]PartCond(nil), p.Conds...),
		Excluded: make(map[int]bool, len(p.Excluded)),
	}
	for k, v := range p.Excluded {
		np.Excluded[k] = v
	}
	return np
}

// partitionSuffix derives a deterministic table-name suffix from the
// partition conditions.
func partitionSuffix(t *schema.Tree, p *Partition) string {
	var b strings.Builder
	for _, c := range p.Conds {
		if c.Dist.Choice != 0 {
			choice := t.Node(c.Dist.Choice)
			branch := choice.Children[c.Branch]
			b.WriteString("_")
			b.WriteString(branchName(branch))
		} else {
			names := make([]string, len(c.Dist.Optionals))
			for i, id := range c.Dist.Optionals {
				names[i] = t.Node(id).Name
			}
			if c.Branch == 0 {
				b.WriteString("_has_")
			} else {
				b.WriteString("_no_")
			}
			b.WriteString(strings.Join(names, "_"))
		}
	}
	return b.String()
}

func branchName(branch *schema.Node) string {
	if branch.Kind == schema.KindElement {
		return branch.Name
	}
	elems := branch.ElementChildren()
	if len(elems) > 0 {
		return elems[0].Name
	}
	return "branch"
}
