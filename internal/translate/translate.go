// Package translate turns XPath queries into sorted outer-union SQL
// [21] under an arbitrary compiled mapping: one main branch per
// context-hosting (partition) relation carrying the inlined
// single-valued projections, one branch per set-valued or outlined
// projection joining its relation to the context relation, UNION ALL,
// ORDER BY the context ID. Union-distributed partitions that cannot
// contain the selection column or any projection are pruned —
// exactly the benefit Section 4.4's candidate selection targets.
package translate

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/rel"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/sqlast"
	"repro/internal/xmlgen"
	"repro/internal/xpath"
)

// OutputID is the output column name of the context element's ID.
const OutputID = "ID"

// UnsupportedKind names a query shape Translate refuses under a mapping.
type UnsupportedKind int

const (
	// PathNotUnique: a selection or projection path resolves to no
	// element, or to several, under the context.
	PathNotUnique UnsupportedKind = iota + 1
	// MultiLevelPath: a selection or projection leaf lives in a relation
	// more than one level below the context's.
	MultiLevelPath
	// PartitionedChildSelection: the selection leaf lives in a child
	// relation that is partitioned.
	PartitionedChildSelection
	// PartitionedOverflowSelection: the selection is on a
	// repetition-split leaf whose overflow relation is partitioned.
	PartitionedOverflowSelection
	// IncompatibleContexts: the context resolves to several elements
	// whose projections differ.
	IncompatibleContexts

	// MaxUnsupportedKind is the largest kind, for arrays indexed by kind.
	MaxUnsupportedKind = IncompatibleContexts
)

var unsupportedNames = [MaxUnsupportedKind + 1]string{
	PathNotUnique:                "path_not_unique",
	MultiLevelPath:               "multi_level_path",
	PartitionedChildSelection:    "partitioned_child_selection",
	PartitionedOverflowSelection: "partitioned_overflow_selection",
	IncompatibleContexts:         "incompatible_contexts",
}

// String names the kind in snake case, the form metric names carry.
func (k UnsupportedKind) String() string {
	if k > 0 && k <= MaxUnsupportedKind {
		return unsupportedNames[k]
	}
	return fmt.Sprintf("unsupported_kind_%d", int(k))
}

// Unsupported is Translate's refusal of a query shape; every other
// translation error is a malformed query or a bug.
type Unsupported struct {
	Kind UnsupportedKind
	msg  string
}

func (e *Unsupported) Error() string { return e.msg }

func unsupported(kind UnsupportedKind, format string, args ...any) error {
	return &Unsupported{Kind: kind, msg: fmt.Sprintf(format, args...)}
}

// Translate compiles an XPath query against a mapping.
func Translate(m *shred.Mapping, q *xpath.Query) (*sqlast.Query, error) {
	return (&translator{m: m}).translate(q)
}

// translator is one translation under a mapping.
type translator struct {
	m *shred.Mapping
}

func (t *translator) translate(q *xpath.Query) (*sqlast.Query, error) {
	ctxNodes := ResolveContext(t.m.Tree, q.Context)
	if len(ctxNodes) == 0 {
		return nil, fmt.Errorf("translate: no schema element matches context %v", q.Context)
	}
	// Output schema is computed from the first context node; further
	// context nodes must produce the same projections by name.
	out := &sqlast.Query{OrderBy: OutputID}
	var outNames []string
	for i, ctx := range ctxNodes {
		branches, names, err := t.translateContext(ctx, q)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			outNames = names
		} else if strings.Join(names, ",") != strings.Join(outNames, ",") {
			return nil, unsupported(IncompatibleContexts, "translate: context %v is ambiguous with incompatible projections", q.Context)
		}
		out.Branches = append(out.Branches, branches...)
	}
	if len(ctxNodes) > 1 {
		out.Branches = dedupeBranches(out.Branches)
	}
	// When every partition is pruned the query provably returns nothing
	// under this mapping, and out has zero branches: it costs nothing and
	// returns no rows.
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("translate: internal error: %w (SQL: %s)", err, out.SQL())
	}
	return out, nil
}

// dedupeBranches drops branches that render to identical SQL. Distinct
// context nodes sharing a type-merged annotation resolve to the same
// host relation with positionally aligned columns, so each of them
// emits the same branch; keeping the duplicates would return every
// stored instance once per context node instead of once.
func dedupeBranches(in []*sqlast.Select) []*sqlast.Select {
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, b := range in {
		sql := b.SQL()
		if seen[sql] {
			continue
		}
		seen[sql] = true
		out = append(out, b)
	}
	return out
}

// projection classification results
type projPlan struct {
	name string // output column base name
	leaf *schema.Node
	// inline: column of the host relation (may be absent in some
	// partitions).
	inline bool
	// split: repetition-split leaf; k occurrence columns inline (named
	// occNames) plus the overflow relations childRels.
	split    bool
	occNames []string
	// childRels: the child relations holding the leaf, whose parent is
	// the host annotation, or the split leaf's overflow relations.
	childRels []*shred.Relation
	// childCols are childRels' value columns of the leaf, read at the
	// first branch that needs them.
	childCols []rel.Column
}

// selPlan is a context's selection, classified once for all its host
// partitions.
type selPlan struct {
	leaf *schema.Node // nil: no selection
	op   sqlast.CmpOp
	lit  rel.Value
	// split: a repetition-split leaf with occurrence columns in the host
	// annotation; overflow is its overflow relation and column, read at
	// the first host that has occurrence columns (overflowErr when that
	// read failed).
	split       bool
	overflow    *shred.Relation
	overflowCol rel.Column
	overflowErr error
	// inline: a column of the host annotation.
	inline bool
	// child: a leaf of a child relation, tested by EXISTS.
	child    *shred.Relation
	childCol rel.Column
}

func (t *translator) translateContext(ctx *schema.Node, q *xpath.Query) ([]*sqlast.Select, []string, error) {
	hosts := t.m.HostRelations(ctx)
	if len(hosts) == 0 {
		return nil, nil, fmt.Errorf("translate: context %s has no hosting relation", ctx.Path())
	}
	hostAnn := hosts[0].Ann

	// --- selection classification ---
	var sel selPlan
	if q.Pred != nil {
		leaves := resolveRelPath(ctx, q.Pred.Path)
		if len(leaves) != 1 {
			return nil, nil, unsupported(PathNotUnique, "translate: selection path %s resolves to %d elements under %s",
				q.Pred.Path, len(leaves), ctx.Path())
		}
		sel.leaf = leaves[0]
		if !sel.leaf.IsLeaf() {
			return nil, nil, fmt.Errorf("translate: selection path %s is not a leaf element", q.Pred.Path)
		}
		sel.op, sel.lit = cmpOp(q.Pred.Op), xmlgen.LiteralValue(q.Pred.Value)
		switch {
		case sel.leaf.SplitCount > 0 && hostsLeafInline(t.m, hostAnn, sel.leaf.ID, 1):
			sel.split = true
		case hostsLeafInline(t.m, hostAnn, sel.leaf.ID, 0):
			sel.inline = true
		}
	}

	// --- projection classification ---
	proj := q.Proj
	if len(proj) == 0 {
		proj = bareContextProjections(ctx)
	}
	plans := make([]*projPlan, 0, len(proj))
	for _, p := range proj {
		leaves := resolveRelPath(ctx, p)
		if len(leaves) != 1 {
			return nil, nil, unsupported(PathNotUnique, "translate: projection %s resolves to %d elements under %s",
				p, len(leaves), ctx.Path())
		}
		leaf := leaves[0]
		if !leaf.IsLeaf() {
			return nil, nil, fmt.Errorf("translate: projection %s is not a leaf element", p)
		}
		pp := &projPlan{name: strings.Join(p, "_"), leaf: leaf}
		switch {
		case leaf.SplitCount > 0 && hostsLeafInline(t.m, hostAnn, leaf.ID, 1):
			pp.split = true
			pp.occNames = make([]string, leaf.SplitCount)
			for i := range pp.occNames {
				pp.occNames[i] = pp.name + "__" + strconv.Itoa(i+1)
			}
			pp.childRels = t.m.RelationsOf(leaf.Annotation)
		case hostsLeafInline(t.m, hostAnn, leaf.ID, 0):
			pp.inline = true
		default:
			prels := t.m.HostRelations(leaf)
			if len(prels) == 0 {
				return nil, nil, fmt.Errorf("translate: projection %s has no hosting relation", p)
			}
			if !relationChildOf(prels[0], hostAnn) {
				return nil, nil, unsupported(MultiLevelPath, "translate: projection %s crosses more than one relation level", p)
			}
			for _, crel := range prels {
				if crel.HasLeaf(leaf.ID) {
					pp.childRels = append(pp.childRels, crel)
				} // else a child partition without the leaf
			}
		}
		plans = append(plans, pp)
	}

	// Output schema: ID, then per projection either one column or
	// (for split) k occurrence columns plus the overflow column.
	outNames := []string{OutputID}
	for _, pp := range plans {
		outNames = append(outNames, pp.occNames...)
		outNames = append(outNames, pp.name)
	}

	if sel.leaf != nil && !sel.split && !sel.inline {
		if err := t.childSelection(&sel, hostAnn); err != nil {
			return nil, nil, err
		}
	}
	var branches []*sqlast.Select
	for _, host := range hosts {
		// Partition pruning on the selection column.
		selPreds, ok, err := t.selectionPreds(host, &sel)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			continue // partition cannot satisfy the selection
		}
		// Main branch: inlined single-valued and split occurrence
		// columns present in this partition.
		main := &sqlast.Select{From: []string{host.Name}, Where: selPreds,
			Items: make([]sqlast.SelectItem, 0, len(outNames))}
		main.Items = append(main.Items, sqlast.SelectItem{
			Col: &sqlast.ColRef{Table: host.Name, Column: rel.IDColumn}, As: OutputID})
		nonNull := 0
		for _, pp := range plans {
			if pp.split {
				for i, name := range pp.occNames {
					if c, ok := columnFor(host, pp.leaf.ID, i+1); ok {
						main.Items = append(main.Items, sqlast.SelectItem{
							Col: &sqlast.ColRef{Table: host.Name, Column: c.Name}, As: name})
						nonNull++
					} else {
						main.Items = append(main.Items, sqlast.SelectItem{As: name})
					}
				}
				main.Items = append(main.Items, sqlast.SelectItem{As: pp.name})
				continue
			}
			if pp.inline {
				if c, ok := columnFor(host, pp.leaf.ID, 0); ok {
					main.Items = append(main.Items, sqlast.SelectItem{
						Col: &sqlast.ColRef{Table: host.Name, Column: c.Name}, As: pp.name})
					nonNull++
					continue
				}
			}
			main.Items = append(main.Items, sqlast.SelectItem{As: pp.name})
		}
		if nonNull > 0 {
			branches = append(branches, main)
		}
		// Child branches: one per (projection, child partition),
		// overflow relations of split projections included.
		for _, pp := range plans {
			for ci := range pp.childRels {
				b, err := t.childBranch(host, pp, ci, outNames, selPreds)
				if err != nil {
					return nil, nil, err
				}
				branches = append(branches, b)
			}
		}
	}
	return branches, outNames, nil
}

// childBranch builds a branch joining the host to child relation ci of
// the projection and emitting the child's value column into the
// projection slot.
func (t *translator) childBranch(host *shred.Relation, pp *projPlan, ci int,
	outNames []string, selPreds []sqlast.Pred) (*sqlast.Select, error) {
	child := pp.childRels[ci]
	if ci == len(pp.childCols) {
		c, ok := columnFor(child, pp.leaf.ID, 0)
		if !ok {
			return nil, fmt.Errorf("translate: relation %s lacks value column for %s", child.Name, pp.leaf.Path())
		}
		pp.childCols = append(pp.childCols, c)
	}
	valCol := pp.childCols[ci].Name
	b := &sqlast.Select{
		Items: make([]sqlast.SelectItem, 0, len(outNames)),
		From:  []string{host.Name, child.Name},
		Where: make([]sqlast.Pred, 0, 1+len(selPreds)),
	}
	b.Where = append(b.Where, sqlast.Pred{
		Kind:  sqlast.PredJoin,
		Left:  sqlast.ColRef{Table: child.Name, Column: rel.PIDColumn},
		Right: sqlast.ColRef{Table: host.Name, Column: rel.IDColumn},
	})
	b.Where = append(b.Where, selPreds...)
	for _, name := range outNames {
		switch name {
		case OutputID:
			b.Items = append(b.Items, sqlast.SelectItem{
				Col: &sqlast.ColRef{Table: host.Name, Column: rel.IDColumn}, As: OutputID})
		case pp.name:
			b.Items = append(b.Items, sqlast.SelectItem{
				Col: &sqlast.ColRef{Table: child.Name, Column: valCol}, As: pp.name})
		default:
			b.Items = append(b.Items, sqlast.SelectItem{As: name})
		}
	}
	return b, nil
}

// childSelection resolves a selection on a leaf of a child relation:
// the relation and its value column, the same for every host.
func (t *translator) childSelection(sel *selPlan, hostAnn string) error {
	prels := t.m.HostRelations(sel.leaf)
	if len(prels) == 0 {
		return fmt.Errorf("translate: selection %s has no hosting relation", sel.leaf.Path())
	}
	if len(prels) != 1 {
		return unsupported(PartitionedChildSelection, "translate: selection on partitioned child relation is unsupported")
	}
	if !relationChildOf(prels[0], hostAnn) {
		return unsupported(MultiLevelPath, "translate: selection %s crosses more than one relation level", sel.leaf.Path())
	}
	c, ok := columnFor(prels[0], sel.leaf.ID, 0)
	if !ok {
		return fmt.Errorf("translate: relation %s lacks value column for %s", prels[0].Name, sel.leaf.Path())
	}
	sel.child, sel.childCol = prels[0], c
	return nil
}

// selectionPreds builds the WHERE conjuncts implementing the selection
// for one host partition; ok=false prunes the partition entirely.
func (t *translator) selectionPreds(host *shred.Relation, sel *selPlan) ([]sqlast.Pred, bool, error) {
	switch {
	case sel.leaf == nil:
		return nil, true, nil
	case sel.split:
		// Repetition-split selection: OR over the occurrence columns
		// plus EXISTS on the overflow relation.
		var cols []sqlast.ColRef
		for i := 1; i <= sel.leaf.SplitCount; i++ {
			if c, ok := columnFor(host, sel.leaf.ID, i); ok {
				cols = append(cols, sqlast.ColRef{Table: host.Name, Column: c.Name})
			}
		}
		if len(cols) == 0 {
			return nil, false, nil
		}
		if sel.overflow == nil && sel.overflowErr == nil {
			sel.overflowErr = t.overflowSelection(sel)
		}
		if sel.overflowErr != nil {
			return nil, false, sel.overflowErr
		}
		return []sqlast.Pred{{
			Kind:     sqlast.PredOrExists,
			Op:       sel.op,
			Value:    sel.lit.Coerce(sel.overflowCol.Typ),
			Cols:     cols,
			Table:    sel.overflow.Name,
			JoinCol:  rel.PIDColumn,
			OuterCol: sqlast.ColRef{Table: host.Name, Column: rel.IDColumn},
			InnerCol: sel.overflowCol.Name,
		}}, true, nil
	case sel.inline:
		c, ok := columnFor(host, sel.leaf.ID, 0)
		if !ok {
			// This partition cannot contain the selection element:
			// prune it (union-distribution benefit).
			return nil, false, nil
		}
		return []sqlast.Pred{{
			Kind:  sqlast.PredCompare,
			Op:    sel.op,
			Col:   sqlast.ColRef{Table: host.Name, Column: c.Name},
			Value: sel.lit.Coerce(c.Typ),
		}}, true, nil
	default:
		return []sqlast.Pred{{
			Kind:     sqlast.PredExists,
			Op:       sel.op,
			Value:    sel.lit.Coerce(sel.childCol.Typ),
			Table:    sel.child.Name,
			JoinCol:  rel.PIDColumn,
			OuterCol: sqlast.ColRef{Table: host.Name, Column: rel.IDColumn},
			InnerCol: sel.childCol.Name,
		}}, true, nil
	}
}

// overflowSelection resolves a split selection's overflow relation and
// value column.
func (t *translator) overflowSelection(sel *selPlan) error {
	overflow := t.m.RelationsOf(sel.leaf.Annotation)
	if len(overflow) != 1 {
		return unsupported(PartitionedOverflowSelection, "translate: split selection with partitioned overflow relation")
	}
	c, ok := columnFor(overflow[0], sel.leaf.ID, 0)
	if !ok {
		return fmt.Errorf("translate: relation %s lacks value column for %s", overflow[0].Name, sel.leaf.Path())
	}
	sel.overflow, sel.overflowCol = overflow[0], c
	return nil
}

// hostsLeafInline reports whether the leaf has an inline column home
// (at the given occurrence level: 0 scalar, 1 first split column) in
// the relations of the host annotation.
func hostsLeafInline(m *shred.Mapping, hostAnn string, leafID, occ int) bool {
	for _, h := range m.Homes(leafID) {
		if h.Rel.Ann == hostAnn && h.Occurrence == occ && !h.Overflow {
			return true
		}
	}
	return false
}

// columnFor returns the column of r holding the leaf at the occurrence.
func columnFor(r *shred.Relation, leafID, occ int) (rel.Column, bool) {
	if ci := r.ColumnFor(leafID, occ); ci >= 0 {
		return r.Columns[ci], true
	}
	return rel.Column{}, false
}

// relationChildOf reports whether r's PID references the given
// annotation.
func relationChildOf(r *shred.Relation, ann string) bool {
	for _, pa := range r.ParentAnns {
		if pa == ann {
			return true
		}
	}
	return false
}

// bareContextProjections returns the implicit projections of a bare
// context query: the context's own value for a leaf context, otherwise
// its single-valued direct leaf children.
func bareContextProjections(ctx *schema.Node) []xpath.Path {
	if ctx.IsLeaf() {
		return []xpath.Path{{ctx.Name}}
	}
	var out []xpath.Path
	for _, c := range ctx.ElementChildren() {
		if c.IsLeaf() && !c.IsSetValued() {
			out = append(out, xpath.Path{c.Name})
		}
	}
	return out
}

// ResolveContext resolves location steps to element nodes of the
// schema tree in document order.
func ResolveContext(t *schema.Tree, steps []xpath.Step) []*schema.Node {
	if len(steps) == 0 {
		return nil
	}
	var cur []*schema.Node
	switch steps[0].Axis {
	case xpath.Child:
		if t.Root.Name == steps[0].Name {
			cur = append(cur, t.Root)
		}
	case xpath.Descendant:
		cur = append(cur, t.ElementsNamed(steps[0].Name)...)
	}
	for _, s := range steps[1:] {
		var next []*schema.Node
		seen := make(map[int]bool)
		for _, n := range cur {
			switch s.Axis {
			case xpath.Child:
				for _, c := range n.ElementChildren() {
					if c.Name == s.Name && !seen[c.ID] {
						seen[c.ID] = true
						next = append(next, c)
					}
				}
			case xpath.Descendant:
				var walk func(e *schema.Node)
				walk = func(e *schema.Node) {
					if e.Name == s.Name && !seen[e.ID] {
						seen[e.ID] = true
						next = append(next, e)
					}
					for _, c := range e.ElementChildren() {
						walk(c)
					}
				}
				for _, c := range n.ElementChildren() {
					walk(c)
				}
			}
		}
		cur = next
	}
	return cur
}

// resolveRelPath resolves a relative child path from a context element
// to element nodes, in document order.
func resolveRelPath(ctx *schema.Node, p xpath.Path) []*schema.Node {
	// A path naming the leaf context itself resolves to the context
	// (bare leaf contexts).
	if len(p) == 1 && ctx.IsLeaf() && p[0] == ctx.Name {
		return []*schema.Node{ctx}
	}
	return appendRelPath(nil, ctx, p)
}

// appendRelPath appends to out the nodes the rest of p resolves to
// under n, looking through constructors for element children.
func appendRelPath(out []*schema.Node, n *schema.Node, p xpath.Path) []*schema.Node {
	if len(p) == 0 {
		return append(out, n)
	}
	for _, c := range n.Children {
		switch {
		case c.Kind != schema.KindElement:
			out = appendRelPath(out, c, p)
		case c.Name == p[0]:
			out = appendRelPath(out, c, p[1:])
		}
	}
	return out
}

func cmpOp(op xpath.CmpOp) sqlast.CmpOp {
	switch op {
	case xpath.OpEq:
		return sqlast.OpEq
	case xpath.OpNe:
		return sqlast.OpNe
	case xpath.OpLt:
		return sqlast.OpLt
	case xpath.OpLe:
		return sqlast.OpLe
	case xpath.OpGt:
		return sqlast.OpGt
	}
	return sqlast.OpGe
}
