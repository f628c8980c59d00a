package translate

import (
	"encoding/binary"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/rel"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/sqlast"
	"repro/internal/xpath"
)

// Memo remembers translations across the mappings of one search. An
// entry is a query's SQL together with every read of the mapping that
// produced it, in order: the context resolution, the relative paths and
// implicit projections resolved under the context, the fields of the
// leaves (leaf-ness, split count, annotation), the HostRelations and
// Homes answers, and the columns, leaves and parents read off the
// relations those answers name. Translation is a deterministic function
// of these answers, so a mapping that gives every one of them again —
// each question built from earlier answers — translates the query to the
// same SQL. A lookup replays an entry's reads against the new mapping
// and returns its SQL only when all of them agree.
//
// The one mapping read not kept is RelationsOf, which the translator
// asks only of a split leaf's annotation (read with the leaf): a leaf
// carries no distribution, so Compile gives that annotation exactly one
// relation, named after it.
//
// Entries are shared read-only: callers must not modify the SQL a Memo
// returns. Refused and failed translations are not kept. A Memo is safe
// for concurrent use.
type Memo struct {
	hits, misses *obs.Counter

	mu      sync.Mutex
	entries map[*xpath.Query][]*entry
}

type entry struct {
	sql   *sqlast.Query
	reads []read
}

// NewMemo creates an empty memo. Hits and misses are counted in reg
// (nil: not counted) as translate.memo.hits and translate.memo.misses.
func NewMemo(reg *obs.Registry) *Memo {
	return &Memo{
		hits:    reg.Counter("translate.memo.hits"),
		misses:  reg.Counter("translate.memo.misses"),
		entries: make(map[*xpath.Query][]*entry),
	}
}

// Translate is Translate, answered from an entry of the same query (by
// identity) whose reads all hold under m.
func (mm *Memo) Translate(m *shred.Mapping, q *xpath.Query) (*sqlast.Query, error) {
	mm.mu.Lock()
	entries := mm.entries[q]
	mm.mu.Unlock()
	for _, e := range entries {
		if holdAll(e.reads, m, q) {
			mm.hits.Inc()
			return e.sql, nil
		}
	}
	mm.misses.Inc()
	// Translations of one query read about as much under any mapping:
	// size the log after the last entry's.
	size := 32
	if len(entries) > 0 {
		size = len(entries[len(entries)-1].reads) + 4
	}
	t := &translator{m: m, record: true, reads: make([]read, 0, size)}
	sql, err := t.translate(q)
	if err != nil {
		return nil, err
	}
	mm.mu.Lock()
	mm.entries[q] = append(mm.entries[q], &entry{sql: sql, reads: t.reads})
	mm.mu.Unlock()
	return sql, nil
}

type readKind uint8

const (
	readContext readKind = iota // ResolveContext of the query's context
	readPath                    // resolveRelPath(id, path)
	readBare                    // bareContextProjections(id)
	readLeaf                    // the fields of node id
	readHosts                   // HostRelations(node id)
	readHomes                   // Homes(id): an inline home in annotation s at occ
	readColumn                  // ColumnFor(id, occ) of relation s
	readHasLeaf                 // HasLeaf(id) of relation s
	readChildOf                 // whether relation s's parents include annotation ans
)

// read is one question the translator asked and the answer it got.
type read struct {
	kind readKind
	ok   bool     // the boolean answer; readLeaf: whether the node is a leaf
	typ  rel.Type // readColumn: the column type answered
	// id is the node asked about: the context (readPath, readBare), the
	// node (readLeaf, readHosts) or the leaf (readHomes, readColumn,
	// readHasLeaf).
	id int32
	// occ is the occurrence asked for (readHomes, readColumn), or the
	// split count answered (readLeaf).
	occ int32
	// s is the annotation asked about (readHomes) or answered (readLeaf;
	// readHosts: the first host's), or the relation asked about
	// (readColumn, readHasLeaf, readChildOf).
	s string
	// ans is the answer as a string: the column name (readColumn), the
	// annotation asked about (readChildOf), the node IDs (readContext,
	// readPath: idList), the relation names (readHosts: nameList) or the
	// projected children's names (readBare: nameList).
	ans string
	// path is the relative path asked for (readPath).
	path xpath.Path
}

// holdAll reports whether every read gives the same answer under m.
func holdAll(reads []read, m *shred.Mapping, q *xpath.Query) bool {
	for i := range reads {
		if !reads[i].holds(m, q) {
			return false
		}
	}
	return true
}

// holds asks r's question of m and reports whether the answer is r's.
func (r *read) holds(m *shred.Mapping, q *xpath.Query) bool {
	switch r.kind {
	case readContext:
		return sameIDs(ResolveContext(m.Tree, q.Context), r.ans)
	case readPath:
		n := m.Tree.Node(int(r.id))
		if n == nil {
			return false
		}
		rest := r.ans
		return eachRelPath(n, r.path, func(c *schema.Node) bool {
			if len(rest) < 4 || idAt(rest) != c.ID {
				return false
			}
			rest = rest[4:]
			return true
		}) && rest == ""
	case readBare:
		n := m.Tree.Node(int(r.id))
		return n != nil && sameNameList(bareContextProjections(n), r.ans, pathName)
	case readLeaf:
		n := m.Tree.Node(int(r.id))
		return n != nil && n.IsLeaf() == r.ok && n.SplitCount == int(r.occ) && n.Annotation == r.s
	case readHosts:
		n := m.Tree.Node(int(r.id))
		if n == nil {
			return false
		}
		hosts := m.HostRelations(n)
		return sameNames(hosts, r.ans) && (len(hosts) == 0 || hosts[0].Ann == r.s)
	case readHomes:
		return hostsLeafInline(m, r.s, int(r.id), int(r.occ)) == r.ok
	case readColumn:
		rl := m.Relation(r.s)
		if rl == nil {
			return false
		}
		c, ok := columnFor(rl, int(r.id), int(r.occ))
		return ok == r.ok && c.Name == r.ans && c.Typ == r.typ
	case readHasLeaf:
		rl := m.Relation(r.s)
		return rl != nil && rl.HasLeaf(int(r.id)) == r.ok
	case readChildOf:
		rl := m.Relation(r.s)
		return rl != nil && relationChildOf(rl, r.ans) == r.ok
	}
	return false
}

// An idList holds node IDs as four little-endian bytes each.

func idList(nodes []*schema.Node) string {
	b := make([]byte, 4*len(nodes))
	for i, n := range nodes {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(n.ID))
	}
	return string(b)
}

func sameIDs(nodes []*schema.Node, ids string) bool {
	if 4*len(nodes) != len(ids) {
		return false
	}
	for i, n := range nodes {
		if idAt(ids[4*i:]) != n.ID {
			return false
		}
	}
	return true
}

// idAt decodes the first ID of an idList.
func idAt(ids string) int {
	return int(int32(uint32(ids[0]) | uint32(ids[1])<<8 | uint32(ids[2])<<16 | uint32(ids[3])<<24))
}

// A nameList holds names, each ended by a NUL byte.

func nameList[T any](items []T, name func(T) string) string {
	var b strings.Builder
	for _, it := range items {
		b.WriteString(name(it))
		b.WriteByte(0)
	}
	return b.String()
}

func sameNameList[T any](items []T, list string, name func(T) string) bool {
	for _, it := range items {
		n := name(it)
		if len(list) <= len(n) || list[:len(n)] != n || list[len(n)] != 0 {
			return false
		}
		list = list[len(n)+1:]
	}
	return list == ""
}

func relationName(r *shred.Relation) string { return r.Name }

func pathName(p xpath.Path) string { return p[0] }

func sameNames(rels []*shred.Relation, list string) bool {
	return sameNameList(rels, list, relationName)
}

// columnFor returns the column of r holding the leaf at the occurrence.
func columnFor(r *shred.Relation, leafID, occ int) (rel.Column, bool) {
	if ci := r.ColumnFor(leafID, occ); ci >= 0 {
		return r.Columns[ci], true
	}
	return rel.Column{}, false
}

// leafNode is a resolved selection or projection node with the fields
// the translator reads from it.
type leafNode struct {
	node   *schema.Node // nil: no node (a query without selection)
	id     int
	isLeaf bool
	split  int
	ann    string
}

// The translator's reads of the mapping and its tree. Each answers from
// t.m and, when recording, logs the question and the answer.

func (t *translator) log(r read) {
	if t.record {
		t.reads = append(t.reads, r)
	}
}

func (t *translator) context(steps []xpath.Step) []*schema.Node {
	nodes := ResolveContext(t.m.Tree, steps)
	if t.record {
		t.log(read{kind: readContext, ans: idList(nodes)})
	}
	return nodes
}

func (t *translator) relPath(ctx *schema.Node, p xpath.Path) []*schema.Node {
	nodes := resolveRelPath(ctx, p)
	if t.record {
		t.log(read{kind: readPath, id: int32(ctx.ID), path: p, ans: idList(nodes)})
	}
	return nodes
}

func (t *translator) bareProjections(ctx *schema.Node) []xpath.Path {
	proj := bareContextProjections(ctx)
	if t.record {
		t.log(read{kind: readBare, id: int32(ctx.ID), ans: nameList(proj, pathName)})
	}
	return proj
}

func (t *translator) leaf(n *schema.Node) leafNode {
	l := leafNode{node: n, id: n.ID, isLeaf: n.IsLeaf(), split: n.SplitCount, ann: n.Annotation}
	t.log(read{kind: readLeaf, id: int32(n.ID), ok: l.isLeaf, occ: int32(l.split), s: l.ann})
	return l
}

// hostRelations returns HostRelations(n) and the first host's
// annotation.
func (t *translator) hostRelations(n *schema.Node) ([]*shred.Relation, string) {
	hosts := t.m.HostRelations(n)
	var ann string
	if len(hosts) > 0 {
		ann = hosts[0].Ann
	}
	if t.record {
		t.log(read{kind: readHosts, id: int32(n.ID), s: ann, ans: nameList(hosts, relationName)})
	}
	return hosts, ann
}

func (t *translator) hostsInline(hostAnn string, leafID, occ int) bool {
	ok := hostsLeafInline(t.m, hostAnn, leafID, occ)
	t.log(read{kind: readHomes, s: hostAnn, id: int32(leafID), occ: int32(occ), ok: ok})
	return ok
}

func (t *translator) column(r *shred.Relation, leafID, occ int) (rel.Column, bool) {
	c, ok := columnFor(r, leafID, occ)
	t.log(read{kind: readColumn, s: r.Name, id: int32(leafID), occ: int32(occ), ok: ok, ans: c.Name, typ: c.Typ})
	return c, ok
}

func (t *translator) hasLeaf(r *shred.Relation, leafID int) bool {
	ok := r.HasLeaf(leafID)
	t.log(read{kind: readHasLeaf, s: r.Name, id: int32(leafID), ok: ok})
	return ok
}

func (t *translator) childOf(r *shred.Relation, ann string) bool {
	ok := relationChildOf(r, ann)
	t.log(read{kind: readChildOf, s: r.Name, ans: ann, ok: ok})
	return ok
}
