package schema

import (
	"fmt"
	"strings"
)

// Builder helpers for constructing schema trees in Go code. Nodes get
// their IDs when the root is passed to NewTree.

// Elem constructs an element node with the given content children.
func Elem(name string, children ...*Node) *Node {
	return &Node{Kind: KindElement, Name: name, Children: children}
}

// Leaf constructs a leaf element with simple content of the given base
// type.
func Leaf(name string, base BaseType) *Node {
	return Elem(name, &Node{Kind: KindSimple, Base: base})
}

// TypedLeaf constructs a leaf element carrying a shared type name.
func TypedLeaf(name string, base BaseType, typeName string) *Node {
	n := Leaf(name, base)
	n.TypeName = typeName
	return n
}

// Seq constructs a sequence (",") constructor.
func Seq(children ...*Node) *Node {
	return &Node{Kind: KindSequence, Children: children}
}

// Choice constructs a choice ("|") constructor.
func Choice(children ...*Node) *Node {
	return &Node{Kind: KindChoice, Children: children}
}

// Opt constructs an option ("?") constructor: minOccurs=0, maxOccurs=1.
func Opt(child *Node) *Node {
	return &Node{Kind: KindOption, Children: []*Node{child}, MinOccurs: 0, MaxOccurs: 1}
}

// Rep constructs an unbounded repetition ("*") constructor.
func Rep(child *Node) *Node {
	return &Node{Kind: KindRepetition, Children: []*Node{child}, MinOccurs: 0, MaxOccurs: Unbounded}
}

// RepN constructs a bounded repetition with maxOccurs = max.
func RepN(child *Node, max int) *Node {
	return &Node{Kind: KindRepetition, Children: []*Node{child}, MinOccurs: 0, MaxOccurs: max}
}

// ApplyHybridInlining annotates the tree per the hybrid-inlining
// mapping of Shanmugasundaram et al. [20]: only nodes that must be
// mapped to separate relations (the root and set-valued elements) are
// annotated; everything else is inlined. Set-valued occurrences of the
// same shared type receive the same annotation, so shared types land in
// one relation. Existing annotations, distributions, and split counts
// are cleared. The tree is modified in place and also returned.
func ApplyHybridInlining(t *Tree) *Tree {
	byType := make(map[string]string) // TypeName -> annotation
	used := make(map[string]int)      // annotation base name -> count
	t.Walk(func(n *Node) {
		if n.Kind != KindElement {
			return
		}
		n.Annotation = ""
		n.Distributions = nil
		n.SplitCount = 0
		if !n.MustAnnotate() {
			return
		}
		if n.TypeName != "" {
			if ann, ok := byType[n.TypeName]; ok {
				n.Annotation = ann
				return
			}
		}
		ann := uniqueAnnotation(n.Name, used)
		n.Annotation = ann
		if n.TypeName != "" {
			byType[n.TypeName] = ann
		}
	})
	return t
}

// ApplyFullySplit annotates every element node with a unique annotation
// (all possible outlining and type-split transformations applied,
// Section 4.1). Distributions and split counts are cleared; statistics
// are collected at this finest granularity.
func ApplyFullySplit(t *Tree) *Tree {
	used := make(map[string]int)
	t.Walk(func(n *Node) {
		if n.Kind != KindElement {
			return
		}
		n.Distributions = nil
		n.SplitCount = 0
		n.Annotation = uniqueAnnotation(n.Name, used)
	})
	return t
}

// ApplyFullInlining removes every annotation that is not mandatory,
// producing the fully inlined schema T0 of Theorem 1. Distributions and
// split counts on inlined nodes are dropped; those on mandatory nodes
// are preserved. Shared-type mandatory nodes keep their (possibly
// distinct) annotations.
func ApplyFullInlining(t *Tree) *Tree {
	t.Walk(func(n *Node) {
		if n.Kind != KindElement || n.MustAnnotate() {
			return
		}
		n.Annotation = ""
		n.Distributions = nil
		n.SplitCount = 0
	})
	return t
}

// uniqueAnnotation derives an annotation from an element name, adding
// a numeric suffix when the bare name was already used (title, title1,
// title2, ...).
func uniqueAnnotation(name string, used map[string]int) string {
	base := strings.ToLower(strings.TrimPrefix(name, "@"))
	n := used[base]
	used[base] = n + 1
	if n == 0 {
		return base
	}
	return fmt.Sprintf("%s%d", base, n)
}

// DBLP builds the DBLP schema of Fig. 1a: a dblp root with repeated
// inproceedings and book elements. The two title elements and the two
// author elements are shared types; author is set-valued; book has an
// optional booktitle. Annotations follow hybrid inlining, with the two
// author occurrences sharing the author relation and book's title
// outlined as "title1" exactly as in the figure.
func DBLP() *Tree {
	inproc := Elem("inproceedings",
		Seq(
			TypedLeaf("title", BaseString, "Title"),
			Leaf("booktitle", BaseString),
			Leaf("year", BaseInt),
			Leaf("pages", BaseString),
			Opt(Leaf("ee", BaseString)),
			Opt(Leaf("cdrom", BaseString)),
			Opt(Leaf("url", BaseString)),
			Rep(TypedLeaf("author", BaseString, "Author")),
			Rep(TypedLeaf("cite", BaseString, "Cite")),
			Rep(TypedLeaf("editor", BaseString, "Editor")),
		),
	)
	book := Elem("book",
		Seq(
			TypedLeaf("title", BaseString, "Title"),
			Opt(Leaf("booktitle", BaseString)),
			Leaf("year", BaseInt),
			Leaf("publisher", BaseString),
			Opt(Leaf("isbn", BaseString)),
			Opt(Leaf("price", BaseFloat)),
			Rep(TypedLeaf("author", BaseString, "Author")),
			Rep(TypedLeaf("cite", BaseString, "Cite")),
			Rep(TypedLeaf("editor", BaseString, "Editor")),
		),
	)
	root := Elem("dblp", Seq(Rep(inproc), Rep(book)))
	t := NewTree(root)
	ApplyHybridInlining(t)
	// Fig. 1a outlines book's title with annotation "title1" while
	// inproceedings' title stays inlined: the canonical shared-type pair
	// that type merge can only reach after an inline (Section 3.3).
	for _, n := range t.ElementsNamed("title") {
		if n.ElementParent() != nil && n.ElementParent().Name == "book" {
			n.Annotation = "title1"
		}
	}
	if err := t.Validate(); err != nil {
		panic("schema: DBLP schema invalid: " + err.Error())
	}
	return t
}

// Movie builds the Movie schema of Fig. 1b: a movies root with
// repeated movie elements holding title, year, repeated aka_title,
// optional avg_rating, a (box_office | seasons) choice, repeated
// director and actor (shared Person type), and a few scalar fields.
func Movie() *Tree {
	movie := Elem("movie",
		Seq(
			Leaf("title", BaseString),
			Leaf("year", BaseInt),
			Rep(Leaf("aka_title", BaseString)),
			Opt(Leaf("avg_rating", BaseFloat)),
			Choice(Leaf("box_office", BaseInt), Leaf("seasons", BaseInt)),
			Rep(TypedLeaf("director", BaseString, "Person")),
			Rep(TypedLeaf("actor", BaseString, "Person")),
			Leaf("genre", BaseString),
			Leaf("country", BaseString),
			Opt(Leaf("language", BaseString)),
			Opt(Leaf("runtime", BaseInt)),
		),
	)
	root := Elem("movies", Seq(Rep(movie)))
	t := NewTree(root)
	ApplyHybridInlining(t)
	// Keep director and actor in separate relations by default (they
	// are shared types, so type merge is available as a transformation).
	for _, n := range t.ElementsNamed("actor") {
		n.Annotation = "actor"
	}
	for _, n := range t.ElementsNamed("director") {
		n.Annotation = "director"
	}
	if err := t.Validate(); err != nil {
		panic("schema: Movie schema invalid: " + err.Error())
	}
	return t
}
