package shred

import (
	"encoding/binary"
	"slices"
	"sync"

	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/stats"
)

// Memo remembers compiled annotation groups and their derived
// statistics across the mappings of one search, so that a mapping
// compiles and derives only the annotations a transformation changed.
// A group is keyed by everything compileGroup reads (groupKey); its
// statistics additionally by the anchors of its parent annotations,
// which are all deriveGroup reads beyond the group. Everything a Memo
// hands out is shared read-only: the mappings of concurrent
// compilations share the groups' Columns, ParentAnns, Part and column
// index, and their MapProviders share the TableStats. A Memo is safe
// for concurrent use and derives statistics from one Collection.
type Memo struct {
	col *stats.Collection

	groupHits, groupMisses *obs.Counter
	statsHits, statsMisses *obs.Counter

	mu     sync.Mutex
	groups map[string]*group
}

// derivedStats is one set of statistics for a group's relations, under
// the parent anchors it was derived with.
type derivedStats struct {
	parents []int
	tables  []*stats.TableStats
}

// NewMemo creates an empty memo deriving statistics from col. Hits and
// misses are counted in reg (nil: not counted) as shred.memo.group_* (a
// group's compiled relations) and shred.memo.stats_* (a group's derived
// statistics).
func NewMemo(col *stats.Collection, reg *obs.Registry) *Memo {
	return &Memo{
		col:         col,
		groupHits:   reg.Counter("shred.memo.group_hits"),
		groupMisses: reg.Counter("shred.memo.group_misses"),
		statsHits:   reg.Counter("shred.memo.stats_hits"),
		statsMisses: reg.Counter("shred.memo.stats_misses"),
		groups:      make(map[string]*group),
	}
}

// Compile is Compile, reusing every annotation group the memo holds
// under the same key: the mapping gets its own Relations, bound to t's
// nodes by ID.
func (c *Memo) Compile(t *schema.Tree) (*Mapping, error) { return compile(t, c) }

// DeriveStats is DeriveStats over the memo's Collection, reusing the
// statistics of every group the memo compiled and already derived under
// the same parent anchors.
func (c *Memo) DeriveStats(m *Mapping) stats.MapProvider { return deriveStats(m, c.col, c) }

// group returns the compiled group of an annotation, from the memo when
// it holds the group's key. key is scratch space for the key; the
// grown buffer is returned for the next call.
func (c *Memo) group(t *schema.Tree, ann string, anchors []*schema.Node, key []byte) (*group, []byte, error) {
	key = groupKey(key[:0], ann, anchors)
	c.mu.Lock()
	g := c.groups[string(key)]
	c.mu.Unlock()
	if g != nil {
		c.groupHits.Inc()
		return g, key, nil
	}
	c.groupMisses.Inc()
	g, err := compileGroup(t, ann, anchors)
	if err != nil {
		return nil, key, err
	}
	g.col = c.col
	c.mu.Lock()
	if prev := c.groups[string(key)]; prev != nil {
		g = prev // a concurrent compilation stored it first
	} else {
		c.groups[string(key)] = g
	}
	c.mu.Unlock()
	return g, key, nil
}

// stats returns the group's statistics under the given parent anchors,
// deriving and keeping them on a miss.
func (c *Memo) stats(g *group, parents []int, derive func() []*stats.TableStats) []*stats.TableStats {
	g.mu.Lock()
	for _, d := range g.derived {
		if slices.Equal(d.parents, parents) {
			g.mu.Unlock()
			c.statsHits.Inc()
			return d.tables
		}
	}
	g.mu.Unlock()
	c.statsMisses.Inc()
	tables := derive()
	g.mu.Lock()
	g.derived = append(g.derived, derivedStats{parents: slices.Clone(parents), tables: tables})
	g.mu.Unlock()
	return tables
}

// groupKey appends the key of an annotation group: the annotation, and
// per anchor its ID, its nearest annotated ancestor (ID and
// annotation), its distributions in order, and its content down to the
// annotated frontier. Two groups with equal keys compile to the same
// relations, names included.
func groupKey(b []byte, ann string, anchors []*schema.Node) []byte {
	b = appendString(b, ann)
	for _, a := range anchors {
		b = binary.AppendVarint(b, int64(a.ID))
		if p := a.AnnotatedAncestor(); p != nil {
			b = binary.AppendVarint(b, int64(p.ID))
			b = appendString(b, p.Annotation)
		} else {
			b = binary.AppendVarint(b, 0)
		}
		b = binary.AppendUvarint(b, uint64(len(a.Distributions)))
		for _, d := range a.Distributions {
			b = binary.AppendVarint(b, int64(d.Choice))
			b = binary.AppendUvarint(b, uint64(len(d.Optionals)))
			for _, id := range d.Optionals {
				b = binary.AppendVarint(b, int64(id))
			}
		}
		b = appendContent(b, a, a)
	}
	return b
}

// appendContent appends one node of an anchor's content and, unless it
// is an annotated element other than the anchor, its children: kind,
// ID, name, simple type, whether it is annotated, split count,
// occurrence bounds and child count. An annotated frontier element
// contributes its own fields and its simple type when it is a leaf (a
// split leaf's occurrence columns take that type).
func appendContent(b []byte, n, anchor *schema.Node) []byte {
	b = append(b, byte(n.Kind), byte(n.Base))
	b = binary.AppendVarint(b, int64(n.ID))
	b = appendString(b, n.Name)
	annotated := n.Annotation != ""
	if annotated {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendVarint(b, int64(n.SplitCount))
	b = binary.AppendVarint(b, int64(n.MinOccurs))
	b = binary.AppendVarint(b, int64(n.MaxOccurs))
	if annotated && n != anchor && n.Kind == schema.KindElement {
		if n.IsLeaf() {
			return append(b, 1, byte(n.LeafBase()))
		}
		return append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(n.Children)))
	for _, ch := range n.Children {
		b = appendContent(b, ch, anchor)
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}
