package shred

import (
	"slices"

	"repro/internal/rel"
	"repro/internal/schema"
	"repro/internal/stats"
)

// DeriveStats derives per-table statistics for this mapping from the
// statistics collected once at the finest granularity (Section 4.1).
// The search algorithms cost every enumerated mapping with derived
// statistics; data is never reloaded or rescanned during search.
//
// Derivations: relation cardinality is the sum of its anchors' instance
// counts scaled by the partition fraction (presence independence is
// assumed for merged implicit unions); overflow relations of
// repetition-split leaves use the cardinality histogram's overflow
// count; split occurrence columns take their null fraction from the
// cardinality histogram; value distributions of the fully split leaves
// carry over with counts rescaled.
func DeriveStats(m *Mapping, col *stats.Collection) stats.MapProvider {
	return deriveStats(m, col, nil)
}

// deriveStats derives the statistics group by group: a group's
// relations read only their own rows, their anchors' content and their
// parent annotations' anchors. With a memo, a group a memo over the same
// Collection compiled keeps its statistics per parent anchors, and
// derives them only the first time.
func deriveStats(m *Mapping, col *stats.Collection, memo *Memo) stats.MapProvider {
	out := make(stats.MapProvider, len(m.Relations))
	var parents []int
	off := 0
	for _, g := range m.groups {
		rels := m.Relations[off : off+len(g.rels)]
		off += len(g.rels)
		var tables []*stats.TableStats
		if memo != nil && g.col == col {
			parents = parentAnchors(parents[:0], m, rels[0])
			tables = memo.stats(g, parents, func() []*stats.TableStats { return deriveGroup(m, rels, col) })
		} else {
			tables = deriveGroup(m, rels, col)
		}
		for i, r := range rels {
			out[r.Name] = tables[i]
		}
	}
	return out
}

// deriveGroup derives the statistics of one annotation's relations.
func deriveGroup(m *Mapping, group []*Relation, col *stats.Collection) []*stats.TableStats {
	rows := make([]float64, len(group))
	for i, r := range group {
		rows[i] = deriveRows(m, r, col)
	}
	out := make([]*stats.TableStats, len(group))
	for i, r := range group {
		ts := &stats.TableStats{
			Name: r.Name,
			Rows: int64(rows[i] + 0.5),
			Cols: make(map[string]*stats.ColumnStats, len(r.Columns)),
		}
		nr := rows[i]
		var rowBytes float64 = 0
		for _, c := range r.Columns {
			cs := deriveColumn(m, r, c, col, nr, group, rows)
			ts.Cols[c.Name] = cs
			rowBytes += (1-cs.NullFrac)*avgWidth(cs) + cs.NullFrac*1
		}
		ts.RowBytes = rowBytes
		out[i] = ts
	}
	return out
}

// parentAnchors appends, per distinct parent annotation of r in order,
// a -1 separator and the IDs of that annotation's anchors: what
// parentInstanceCount reads beyond the group.
func parentAnchors(b []int, m *Mapping, r *Relation) []int {
	for i, pa := range r.ParentAnns {
		if pa == "" || slices.Contains(r.ParentAnns[:i], pa) {
			continue
		}
		b = append(b, -1)
		if prs := m.RelationsOf(pa); len(prs) > 0 {
			for _, a := range prs[0].Anchors {
				b = append(b, a.ID)
			}
		}
	}
	return b
}

func avgWidth(cs *stats.ColumnStats) float64 {
	if cs.AvgWidth > 0 {
		return cs.AvgWidth
	}
	if cs.Typ == rel.TString {
		return 12
	}
	return 8
}

// deriveRows estimates the relation's row count.
func deriveRows(m *Mapping, r *Relation, col *stats.Collection) float64 {
	var rows float64
	frac := partitionFraction(m, r, col)
	for _, a := range r.Anchors {
		if a.IsLeaf() && a.SplitCount > 0 {
			if h := col.Card[a.ID]; h != nil {
				rows += float64(h.OverflowCount(a.SplitCount))
			}
			continue
		}
		rows += float64(col.InstanceCount(a.ID)) * frac
	}
	return rows
}

// partitionFraction estimates the fraction of the annotation's
// instances that land in this partition relation.
func partitionFraction(m *Mapping, r *Relation, col *stats.Collection) float64 {
	if r.Part == nil {
		return 1
	}
	anchor := r.Anchors[0]
	total := float64(col.InstanceCount(anchor.ID))
	if total == 0 {
		return 0
	}
	f := 1.0
	for _, cond := range r.Part.Conds {
		if cond.Dist.Choice != 0 {
			choice := m.Tree.Node(cond.Dist.Choice)
			branch := choice.Children[cond.Branch]
			f *= branchFraction(branch, total, col)
		} else {
			pNone := 1.0
			for _, id := range cond.Dist.Optionals {
				pNone *= 1 - presenceOf(m, id, anchor, col)
			}
			if cond.Branch == 0 {
				f *= 1 - pNone
			} else {
				f *= pNone
			}
		}
	}
	return f
}

// branchFraction is the fraction of anchor instances whose choice
// resolved to this branch, estimated from the branch's first element's
// instance count.
func branchFraction(branch *schema.Node, total float64, col *stats.Collection) float64 {
	var first *schema.Node
	if branch.Kind == schema.KindElement {
		first = branch
	} else if elems := branch.ElementChildren(); len(elems) > 0 {
		first = elems[0]
	}
	if first == nil {
		return 0
	}
	f := float64(col.InstanceCount(first.ID)) / total
	if f > 1 {
		f = 1
	}
	return f
}

// presenceOf is the probability an anchor instance contains the
// element node at least once.
func presenceOf(m *Mapping, id int, anchor *schema.Node, col *stats.Collection) float64 {
	return col.Presence(id, anchor.ID)
}

// deriveColumn builds column statistics for one relation column.
// group is r's annotation group (m.RelationsOf(r.Ann)) and rows its
// relations' row counts.
func deriveColumn(m *Mapping, r *Relation, c rel.Column, col *stats.Collection,
	relRows float64, group []*Relation, rows []float64) *stats.ColumnStats {
	switch c.Name {
	case rel.IDColumn:
		return keyStats(int64(relRows), int64(relRows))
	case rel.PIDColumn:
		parents := parentInstanceCount(m, r, col)
		if parents > relRows {
			parents = relRows
		}
		return keyStats(int64(relRows), int64(parents))
	}
	base := col.Cols[c.LeafID]
	if base == nil {
		return &stats.ColumnStats{Typ: c.Typ}
	}
	leaf := m.Tree.Node(c.LeafID)
	cs := *base // copy
	switch {
	case c.Occurrence > 0:
		// Split occurrence column: null fraction from the cardinality
		// histogram.
		frac := 0.0
		if h := col.Card[c.LeafID]; h != nil {
			frac = h.FracWithAtLeast(c.Occurrence)
		}
		cs.NullFrac = 1 - frac
		cs.Count = int64(relRows * frac)
	case leaf != nil && leaf.ID == r.Anchors[0].ID:
		// The relation's own value column (outlined leaf / overflow).
		cs.NullFrac = 0
		cs.Count = int64(relRows)
	default:
		// Scalar inlined leaf: distribute the leaf's instances over the
		// partitions that contain it, proportionally to their sizes.
		var hostRows float64
		for i, pr := range group {
			if pr.HasLeaf(c.LeafID) {
				hostRows += rows[i]
			}
		}
		leafCount := float64(col.InstanceCount(c.LeafID))
		var inHere float64
		if hostRows > 0 {
			inHere = leafCount * (relRows / hostRows)
		}
		if inHere > relRows {
			inHere = relRows
		}
		cs.Count = int64(inHere)
		if relRows > 0 {
			cs.NullFrac = 1 - inHere/relRows
		}
	}
	if cs.Distinct > cs.Count {
		cs.Distinct = cs.Count
	}
	return &cs
}

// parentInstanceCount sums the instance counts of the parent
// annotations' anchors.
func parentInstanceCount(m *Mapping, r *Relation, col *stats.Collection) float64 {
	seen := make(map[string]bool)
	var total float64
	for _, pa := range r.ParentAnns {
		if pa == "" || seen[pa] {
			continue
		}
		seen[pa] = true
		for _, pr := range m.RelationsOf(pa) {
			for _, a := range pr.Anchors {
				total += float64(col.InstanceCount(a.ID))
			}
			break // anchors are shared across partitions
		}
	}
	return total
}

func keyStats(count, distinct int64) *stats.ColumnStats {
	return &stats.ColumnStats{
		Count:    count,
		Distinct: distinct,
		AvgWidth: 8,
		Typ:      rel.TInt,
		Min:      rel.Int(1),
		Max:      rel.Int(count),
	}
}
