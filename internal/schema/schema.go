// Package schema models XSD schemas as annotated schema trees, following
// the formalism of Section 2 of the paper: a tree T(V, E, A) whose nodes
// are type constructors (sequence ",", repetition "*", option "?", choice
// "|"), tag names, and simple types, and whose annotations A mark the
// nodes that are mapped to separate relations.
//
// Node identity (Node.ID) is stable across Clone, so statistics collected
// once on the fully-split schema remain addressable after any sequence of
// logical transformations.
package schema

import (
	"fmt"
	"sort"
	"strings"
)

// Kind identifies the constructor a tree node represents.
type Kind int

const (
	// KindElement is a tagname node: an XML element.
	KindElement Kind = iota
	// KindSequence is the "," constructor: ordered content.
	KindSequence
	// KindChoice is the "|" constructor: exactly one branch is present.
	KindChoice
	// KindOption is the "?" constructor: minOccurs=0, maxOccurs=1.
	KindOption
	// KindRepetition is the "*" constructor: maxOccurs > 1 or unbounded.
	KindRepetition
	// KindSimple is a simple-type leaf (xs:string, xs:integer, ...).
	KindSimple
)

// String returns the constructor symbol used in the paper.
func (k Kind) String() string {
	switch k {
	case KindElement:
		return "element"
	case KindSequence:
		return ","
	case KindChoice:
		return "|"
	case KindOption:
		return "?"
	case KindRepetition:
		return "*"
	case KindSimple:
		return "simple"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// BaseType is the simple type of a leaf element.
type BaseType int

const (
	// BaseString maps to xs:string.
	BaseString BaseType = iota
	// BaseInt maps to xs:integer.
	BaseInt
	// BaseFloat maps to xs:decimal.
	BaseFloat
)

// String returns the xs: name of the base type.
func (b BaseType) String() string {
	switch b {
	case BaseString:
		return "xs:string"
	case BaseInt:
		return "xs:integer"
	case BaseFloat:
		return "xs:decimal"
	}
	return fmt.Sprintf("BaseType(%d)", int(b))
}

// Unbounded is the MaxOccurs value for maxOccurs="unbounded".
const Unbounded = -1

// Distribution records a union distribution applied to an annotated
// element node (Section 2.1, transformation 3). A distribution either
// distributes an explicit choice constructor (Choice != 0) or forms an
// implicit union over a set of optional child elements (len(Optionals)
// > 0); merged implicit-union candidates from Section 4.7 carry several
// optionals. The relations produced by a distributed node are the cross
// product of its distributions' partitions.
type Distribution struct {
	// Choice is the node ID of the distributed choice constructor, or 0
	// for an implicit union.
	Choice int
	// Optionals holds the element node IDs of the optional children an
	// implicit union distributes on.
	Optionals []int
}

// Key returns a canonical identity for the distribution, used to detect
// duplicates.
func (d Distribution) Key() string {
	if d.Choice != 0 {
		return fmt.Sprintf("choice:%d", d.Choice)
	}
	ids := append([]int(nil), d.Optionals...)
	sort.Ints(ids)
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprint(id)
	}
	return "opt:" + strings.Join(parts, ",")
}

// Node is a schema tree node.
type Node struct {
	// ID is unique within the tree and preserved by Clone.
	ID int
	// Kind is the constructor this node represents.
	Kind Kind
	// Name is the tag name for KindElement nodes.
	Name string
	// Base is the simple type for KindSimple nodes.
	Base BaseType
	// Annotation names the relation this node maps to; empty means the
	// node is inlined into its nearest annotated ancestor. Only
	// KindElement nodes may carry annotations.
	Annotation string
	// TypeName identifies shared types: two element nodes with the same
	// non-empty TypeName are logically equivalent occurrences of one
	// type (Section 2) and are candidates for type merge.
	TypeName string
	// SplitCount is the repetition-split count k: the first k
	// occurrences of this set-valued leaf element are inlined into the
	// parent relation as columns name_1..name_k (Section 2.1,
	// transformation 4). Zero means no repetition split.
	SplitCount int
	// Distributions lists the union distributions applied at this
	// annotated element node.
	Distributions []Distribution
	// MinOccurs and MaxOccurs carry occurrence bounds for
	// KindRepetition nodes (MaxOccurs == Unbounded for unbounded).
	MinOccurs, MaxOccurs int
	// Children are the ordered child nodes.
	Children []*Node
	// Parent is the parent node; nil for the root.
	Parent *Node
}

// IsLeaf reports whether the node is a leaf element: an element whose
// entire content is a single simple type. Leaf elements map to columns.
func (n *Node) IsLeaf() bool {
	return n.Kind == KindElement && len(n.Children) == 1 && n.Children[0].Kind == KindSimple
}

// LeafBase returns the simple type of a leaf element.
func (n *Node) LeafBase() BaseType {
	if !n.IsLeaf() {
		panic(fmt.Sprintf("schema: LeafBase on non-leaf node %s", n.Name))
	}
	return n.Children[0].Base
}

// ElementParent returns the nearest ancestor element node, or nil for
// the root element.
func (n *Node) ElementParent() *Node {
	for p := n.Parent; p != nil; p = p.Parent {
		if p.Kind == KindElement {
			return p
		}
	}
	return nil
}

// IsSetValued reports whether a repetition constructor lies between the
// element node and its nearest element ancestor, i.e. whether multiple
// instances of this element may occur per parent instance.
func (n *Node) IsSetValued() bool {
	for p := n.Parent; p != nil && p.Kind != KindElement; p = p.Parent {
		if p.Kind == KindRepetition {
			return true
		}
	}
	return false
}

// IsOptional reports whether an option constructor (and no repetition)
// lies between the element node and its nearest element ancestor:
// minOccurs=0, maxOccurs=1.
func (n *Node) IsOptional() bool {
	opt := false
	for p := n.Parent; p != nil && p.Kind != KindElement; p = p.Parent {
		switch p.Kind {
		case KindRepetition:
			return false
		case KindOption:
			opt = true
		}
	}
	return opt
}

// UnderChoice returns the choice constructor between the element and its
// nearest element ancestor, or nil if none.
func (n *Node) UnderChoice() *Node {
	for p := n.Parent; p != nil && p.Kind != KindElement; p = p.Parent {
		if p.Kind == KindChoice {
			return p
		}
	}
	return nil
}

// MustAnnotate reports whether the node's in-degree differs from one in
// the type-graph sense (Section 2): the root and set-valued elements
// must be mapped to separate relations and cannot be inlined.
func (n *Node) MustAnnotate() bool {
	if n.Kind != KindElement {
		return false
	}
	return n.Parent == nil || n.IsSetValued()
}

// AnnotatedAncestorIs reports whether a is the nearest annotated
// proper ancestor of n.
func (n *Node) AnnotatedAncestorIs(a *Node) bool { return n.AnnotatedAncestor() == a }

// AnnotatedAncestor returns the nearest proper ancestor element node
// that carries an annotation, or nil if none exists.
func (n *Node) AnnotatedAncestor() *Node {
	for p := n.ElementParent(); p != nil; p = p.ElementParent() {
		if p.Annotation != "" {
			return p
		}
	}
	return nil
}

// ElementChildren returns the element nodes reachable from n without
// passing through another element node, in document order. For a
// constructor node it descends its subtree; for an element node it
// descends the element's content.
func (n *Node) ElementChildren() []*Node {
	var out []*Node
	var walk func(c *Node)
	walk = func(c *Node) {
		if c.Kind == KindElement {
			out = append(out, c)
			return
		}
		for _, ch := range c.Children {
			walk(ch)
		}
	}
	for _, c := range n.Children {
		walk(c)
	}
	return out
}

// Path returns the element names from the root to this element,
// joined by "/". Used for diagnostics and deterministic naming.
func (n *Node) Path() string {
	var names []string
	for p := n; p != nil; p = p.Parent {
		if p.Kind == KindElement {
			names = append(names, p.Name)
		}
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, "/")
}

// Tree is a schema tree with stable node identifiers.
type Tree struct {
	Root   *Node
	byID   map[int]*Node
	nextID int
}

// NewTree wraps a hand-built node structure into a Tree, assigning IDs
// to nodes that lack them (ID == 0) and wiring parent pointers. Nodes
// with pre-assigned IDs keep them.
func NewTree(root *Node) *Tree {
	t := &Tree{Root: root, byID: make(map[int]*Node)}
	maxID := 0
	var scan func(n *Node)
	scan = func(n *Node) {
		if n.ID > maxID {
			maxID = n.ID
		}
		for _, c := range n.Children {
			c.Parent = n
			scan(c)
		}
	}
	scan(root)
	t.nextID = maxID + 1
	var assign func(n *Node)
	assign = func(n *Node) {
		if n.ID == 0 {
			n.ID = t.nextID
			t.nextID++
		}
		if prev, dup := t.byID[n.ID]; dup {
			panic(fmt.Sprintf("schema: duplicate node ID %d (%s and %s)", n.ID, prev.Kind, n.Kind))
		}
		t.byID[n.ID] = n
		for _, c := range n.Children {
			assign(c)
		}
	}
	assign(root)
	return t
}

// Node returns the node with the given ID, or nil.
func (t *Tree) Node(id int) *Node { return t.byID[id] }

// Walk visits every node in document order (pre-order).
func (t *Tree) Walk(f func(*Node)) {
	var walk func(n *Node)
	walk = func(n *Node) {
		f(n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
}

// Elements returns all element nodes in document order.
func (t *Tree) Elements() []*Node {
	var out []*Node
	t.Walk(func(n *Node) {
		if n.Kind == KindElement {
			out = append(out, n)
		}
	})
	return out
}

// Leaves returns all leaf elements in document order.
func (t *Tree) Leaves() []*Node {
	var out []*Node
	t.Walk(func(n *Node) {
		if n.IsLeaf() {
			out = append(out, n)
		}
	})
	return out
}

// Annotated returns all annotated element nodes in document order.
func (t *Tree) Annotated() []*Node {
	var out []*Node
	t.Walk(func(n *Node) {
		if n.Annotation != "" {
			out = append(out, n)
		}
	})
	return out
}

// ElementsNamed returns the element nodes with the given tag name in
// document order.
func (t *Tree) ElementsNamed(name string) []*Node {
	var out []*Node
	t.Walk(func(n *Node) {
		if n.Kind == KindElement && n.Name == name {
			out = append(out, n)
		}
	})
	return out
}

// SharedTypeGroups returns the groups of element nodes that share a
// non-empty TypeName with at least one other node, keyed by TypeName.
func (t *Tree) SharedTypeGroups() map[string][]*Node {
	groups := make(map[string][]*Node)
	t.Walk(func(n *Node) {
		if n.Kind == KindElement && n.TypeName != "" {
			groups[n.TypeName] = append(groups[n.TypeName], n)
		}
	})
	for k, g := range groups {
		if len(g) < 2 {
			delete(groups, k)
		}
	}
	return groups
}

// Clone returns a deep copy of the tree. Node IDs, annotations,
// distributions, and split counts are preserved.
func (t *Tree) Clone() *Tree {
	nt := &Tree{byID: make(map[int]*Node, len(t.byID)), nextID: t.nextID}
	var cp func(n *Node, parent *Node) *Node
	cp = func(n *Node, parent *Node) *Node {
		m := &Node{
			ID:         n.ID,
			Kind:       n.Kind,
			Name:       n.Name,
			Base:       n.Base,
			Annotation: n.Annotation,
			TypeName:   n.TypeName,
			SplitCount: n.SplitCount,
			MinOccurs:  n.MinOccurs,
			MaxOccurs:  n.MaxOccurs,
			Parent:     parent,
		}
		if len(n.Distributions) > 0 {
			m.Distributions = make([]Distribution, len(n.Distributions))
			for i, d := range n.Distributions {
				m.Distributions[i] = Distribution{Choice: d.Choice, Optionals: append([]int(nil), d.Optionals...)}
			}
		}
		m.Children = make([]*Node, len(n.Children))
		for i, c := range n.Children {
			m.Children[i] = cp(c, m)
		}
		nt.byID[m.ID] = m
		return m
	}
	nt.Root = cp(t.Root, nil)
	return nt
}

// NewNodeID allocates a fresh node ID (used by transformations that
// create nodes, e.g. repetition split materialization).
func (t *Tree) NewNodeID() int {
	id := t.nextID
	t.nextID++
	return id
}

// Validate checks the structural invariants of an annotated schema
// tree and returns the first violation found.
func (t *Tree) Validate() error {
	if t.Root == nil {
		return fmt.Errorf("schema: nil root")
	}
	if t.Root.Kind != KindElement {
		return fmt.Errorf("schema: root must be an element, got %s", t.Root.Kind)
	}
	annByName := make(map[string]*Node)
	var err error
	t.Walk(func(n *Node) {
		if err != nil {
			return
		}
		switch n.Kind {
		case KindElement:
			if n.Name == "" {
				err = fmt.Errorf("schema: element node %d has empty name", n.ID)
				return
			}
			for _, c := range n.Children {
				if c.Kind == KindSimple && len(n.Children) != 1 {
					err = fmt.Errorf("schema: element %s mixes simple and complex content", n.Name)
					return
				}
			}
			if n.MustAnnotate() && n.Annotation == "" {
				err = fmt.Errorf("schema: element %s (in-degree != 1) must be annotated", n.Path())
				return
			}
			if n.Annotation != "" {
				if prev, ok := annByName[n.Annotation]; ok {
					// Shared annotation requires shared type.
					if prev.TypeName == "" || prev.TypeName != n.TypeName {
						err = fmt.Errorf("schema: annotation %q shared by non-equivalent types %s and %s",
							n.Annotation, prev.Path(), n.Path())
						return
					}
				} else {
					annByName[n.Annotation] = n
				}
			}
			if n.SplitCount < 0 {
				err = fmt.Errorf("schema: element %s has negative split count", n.Path())
				return
			}
			if n.SplitCount > 0 {
				if !n.IsLeaf() {
					err = fmt.Errorf("schema: repetition split on non-leaf element %s", n.Path())
					return
				}
				if !n.IsSetValued() {
					err = fmt.Errorf("schema: repetition split on single-valued element %s", n.Path())
					return
				}
				if n.Annotation == "" {
					err = fmt.Errorf("schema: repetition-split element %s lost its overflow annotation", n.Path())
					return
				}
			}
			for _, d := range n.Distributions {
				if n.Annotation == "" {
					err = fmt.Errorf("schema: distribution on unannotated element %s", n.Path())
					return
				}
				if d.Choice != 0 {
					c := t.Node(d.Choice)
					if c == nil || c.Kind != KindChoice {
						err = fmt.Errorf("schema: distribution on element %s references non-choice node %d", n.Path(), d.Choice)
						return
					}
					if nearestElement(c) != n {
						err = fmt.Errorf("schema: distributed choice %d does not belong to element %s", d.Choice, n.Path())
						return
					}
				}
				if d.Choice == 0 && len(d.Optionals) == 0 {
					err = fmt.Errorf("schema: empty distribution on element %s", n.Path())
					return
				}
				for _, id := range d.Optionals {
					o := t.Node(id)
					if o == nil || o.Kind != KindElement || !o.IsOptional() {
						err = fmt.Errorf("schema: implicit union on element %s references non-optional node %d", n.Path(), id)
						return
					}
					if o.ElementParent() != n {
						err = fmt.Errorf("schema: implicit union optional %d is not a direct child element of %s", id, n.Path())
						return
					}
				}
			}
		case KindSimple:
			if n.Parent == nil || n.Parent.Kind != KindElement {
				err = fmt.Errorf("schema: simple node %d not directly under an element", n.ID)
				return
			}
		case KindRepetition, KindOption:
			if len(n.Children) != 1 {
				err = fmt.Errorf("schema: %s node %d must have exactly one child, has %d", n.Kind, n.ID, len(n.Children))
				return
			}
		case KindSequence, KindChoice:
			if len(n.Children) == 0 {
				err = fmt.Errorf("schema: %s node %d has no children", n.Kind, n.ID)
				return
			}
		}
	})
	return err
}

// nearestElement returns the nearest element at or above n.
func nearestElement(n *Node) *Node {
	for p := n; p != nil; p = p.Parent {
		if p.Kind == KindElement {
			return p
		}
	}
	return nil
}

// Signature renders a serialization of the tree for use as a
// memoization key: structure, element identities, annotations, split
// counts, union distributions, simple types, and occurrence bounds.
// Unlike String, it disambiguates same-named elements by node ID and
// includes distribution metadata.
//
// A node's distributions are rendered as a sorted set, but mapping
// compilation reads them in order (shred's expandPartitions and
// partitionSuffix). Two trees with equal signatures therefore compile
// to the same relations with the same columns and statistics, but the
// condition suffixes of their partition names may come in a different
// order (inproceedings_has_url_has_cdrom vs
// inproceedings_has_cdrom_has_url; shred's
// TestSignatureIgnoresDistributionOrder). A memo keyed by Signature that
// hands back a mapping, or anything naming its relations, can give one
// tree the other's names; the costs agree, but a search that breaks
// ties by name need not take the same path.
func (t *Tree) Signature() string {
	var b strings.Builder
	var render func(n *Node)
	render = func(n *Node) {
		switch n.Kind {
		case KindElement:
			fmt.Fprintf(&b, "%s#%d", n.Name, n.ID)
			if n.Annotation != "" {
				fmt.Fprintf(&b, "{%s}", n.Annotation)
			}
			if n.TypeName != "" {
				fmt.Fprintf(&b, "<%s>", n.TypeName)
			}
			if n.SplitCount > 0 {
				fmt.Fprintf(&b, "[k=%d]", n.SplitCount)
			}
			if len(n.Distributions) > 0 {
				keys := make([]string, len(n.Distributions))
				for i, d := range n.Distributions {
					keys[i] = d.Key()
				}
				sort.Strings(keys)
				fmt.Fprintf(&b, "[d=%s]", strings.Join(keys, ";"))
			}
			if len(n.Children) > 0 {
				b.WriteByte('(')
				for i, c := range n.Children {
					if i > 0 {
						b.WriteByte(',')
					}
					render(c)
				}
				b.WriteByte(')')
			}
		case KindSequence:
			b.WriteByte('[')
			for i, c := range n.Children {
				if i > 0 {
					b.WriteByte(',')
				}
				render(c)
			}
			b.WriteByte(']')
		case KindChoice:
			b.WriteByte('(')
			for i, c := range n.Children {
				if i > 0 {
					b.WriteByte('|')
				}
				render(c)
			}
			b.WriteByte(')')
		case KindOption:
			render(n.Children[0])
			b.WriteByte('?')
		case KindRepetition:
			render(n.Children[0])
			fmt.Fprintf(&b, "*%d..%d", n.MinOccurs, n.MaxOccurs)
		case KindSimple:
			fmt.Fprintf(&b, ":%d", n.Base)
		}
	}
	render(t.Root)
	return b.String()
}

// String renders the tree in a compact single-line grammar form for
// diagnostics, e.g. movie(title,year,aka_title*,avg_rating?,(box_office|seasons)).
func (t *Tree) String() string {
	var b strings.Builder
	var render func(n *Node)
	render = func(n *Node) {
		switch n.Kind {
		case KindElement:
			b.WriteString(n.Name)
			if n.Annotation != "" {
				fmt.Fprintf(&b, "{%s}", n.Annotation)
			}
			if n.SplitCount > 0 {
				fmt.Fprintf(&b, "[k=%d]", n.SplitCount)
			}
			if !n.IsLeaf() && len(n.Children) > 0 {
				b.WriteByte('(')
				for i, c := range n.Children {
					if i > 0 {
						b.WriteByte(',')
					}
					render(c)
				}
				b.WriteByte(')')
			}
		case KindSequence:
			for i, c := range n.Children {
				if i > 0 {
					b.WriteByte(',')
				}
				render(c)
			}
		case KindChoice:
			b.WriteByte('(')
			for i, c := range n.Children {
				if i > 0 {
					b.WriteByte('|')
				}
				render(c)
			}
			b.WriteByte(')')
		case KindOption:
			render(n.Children[0])
			b.WriteByte('?')
		case KindRepetition:
			render(n.Children[0])
			b.WriteByte('*')
		case KindSimple:
			// leaf content is implied by the element name
		}
	}
	render(t.Root)
	return b.String()
}
