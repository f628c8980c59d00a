// Package xmlgen provides the XML document substrate: an in-memory
// document model aligned with a schema tree, deterministic dataset
// generators for the paper's DBLP and Movie datasets, XML
// serialization/parsing, document validation, statistics collection
// (Section 4.1), and a reference XPath evaluator used as the gold
// standard in integration tests.
package xmlgen

import (
	"fmt"
	"strconv"

	"repro/internal/rel"
	"repro/internal/schema"
)

// Elem is one element instance in a document, annotated with the schema
// node it instantiates.
type Elem struct {
	// Node is the schema element node this instance conforms to.
	Node *schema.Node
	// Value holds the text content of leaf elements.
	Value rel.Value
	// Children are the child element instances in document order.
	Children []*Elem
}

// Doc is an XML document.
type Doc struct {
	Root *Elem
}

// Leaf reports whether the element is a leaf instance.
func (e *Elem) Leaf() bool { return e.Node.IsLeaf() }

// ChildrenOf returns the child instances of the given schema node, in
// document order.
func (e *Elem) ChildrenOf(node *schema.Node) []*Elem {
	var out []*Elem
	for _, c := range e.Children {
		if c.Node == node || c.Node.ID == node.ID {
			out = append(out, c)
		}
	}
	return out
}

// Walk visits the element and all descendants in document order.
func (e *Elem) Walk(f func(*Elem)) {
	f(e)
	for _, c := range e.Children {
		c.Walk(f)
	}
}

// Bytes approximates the serialized size of the element subtree:
// tags plus text content.
func (e *Elem) Bytes() int64 {
	var n int64
	e.Walk(func(x *Elem) {
		n += int64(2*len(x.Node.Name) + 5)
		if x.Leaf() {
			n += int64(x.Value.Width())
		}
	})
	return n
}

// Validate checks the document against the schema tree: every element's
// children must instantiate schema element children of its node,
// occurrence constraints must hold (required children present, at most
// one instance of non-set-valued children, exactly one branch of each
// choice), and leaf values must match the declared base types.
func (d *Doc) Validate(t *schema.Tree) error {
	if d.Root == nil {
		return fmt.Errorf("xmlgen: empty document")
	}
	if d.Root.Node.ID != t.Root.ID {
		return fmt.Errorf("xmlgen: root element %s does not instantiate schema root %s",
			d.Root.Node.Name, t.Root.Name)
	}
	return validateElem(d.Root, t)
}

func validateElem(e *Elem, t *schema.Tree) error {
	n := t.Node(e.Node.ID)
	if n == nil || n.Kind != schema.KindElement || n.Name != e.Node.Name {
		return fmt.Errorf("xmlgen: element %s does not match schema", e.Node.Name)
	}
	if n.IsLeaf() {
		if len(e.Children) != 0 {
			return fmt.Errorf("xmlgen: leaf element %s has children", n.Name)
		}
		if e.Value.Null {
			return fmt.Errorf("xmlgen: leaf element %s has no value", n.Name)
		}
		want := baseToType(n.LeafBase())
		if e.Value.Typ != want {
			// A string value under a numeric leaf is valid when its
			// lexical form parses as the declared type — XML carries text,
			// and "NaN" or " 42 " are legal decimal/integer literals. The
			// shredder applies the same Coerce when loading the column.
			if e.Value.Typ != rel.TString || e.Value.Coerce(want).Null {
				return fmt.Errorf("xmlgen: leaf element %s has %v value, want %v", n.Name, e.Value.Typ, want)
			}
		}
		return nil
	}
	// Count instances per child schema node.
	counts := make(map[int]int)
	for _, c := range e.Children {
		counts[c.Node.ID]++
	}
	if len(n.Children) > 0 {
		if err := validateContent(n.Children[0], counts, n.Name); err != nil {
			return err
		}
	}
	// Every child must be reachable as a schema child of n.
	allowed := make(map[int]bool)
	for _, c := range n.ElementChildren() {
		allowed[c.ID] = true
	}
	for _, c := range e.Children {
		if !allowed[c.Node.ID] {
			return fmt.Errorf("xmlgen: element %s has unexpected child %s", n.Name, c.Node.Name)
		}
		if err := validateElem(c, t); err != nil {
			return err
		}
	}
	return nil
}

// validateContent checks occurrence constraints of a content model
// against instance counts.
func validateContent(n *schema.Node, counts map[int]int, owner string) error {
	switch n.Kind {
	case schema.KindElement:
		if counts[n.ID] != 1 {
			return fmt.Errorf("xmlgen: element %s requires exactly one %s, found %d", owner, n.Name, counts[n.ID])
		}
		return nil
	case schema.KindSequence:
		for _, c := range n.Children {
			if err := validateContent(c, counts, owner); err != nil {
				return err
			}
		}
		return nil
	case schema.KindOption:
		if total := subtreeCount(n.Children[0], counts); total > 1 {
			return fmt.Errorf("xmlgen: optional content under %s occurs %d times", owner, total)
		}
		if subtreeCount(n.Children[0], counts) == 1 {
			return validateContent(n.Children[0], counts, owner)
		}
		return nil
	case schema.KindRepetition:
		if n.MaxOccurs != schema.Unbounded {
			if total := subtreeCount(n.Children[0], counts); total > n.MaxOccurs {
				return fmt.Errorf("xmlgen: repeated content under %s occurs %d times, max %d", owner, total, n.MaxOccurs)
			}
		}
		return nil
	case schema.KindChoice:
		present := 0
		for _, c := range n.Children {
			if subtreeCount(c, counts) > 0 {
				present++
			}
		}
		if present != 1 {
			return fmt.Errorf("xmlgen: choice under %s has %d branches present, want 1", owner, present)
		}
		for _, c := range n.Children {
			if subtreeCount(c, counts) > 0 {
				return validateContent(c, counts, owner)
			}
		}
		return nil
	case schema.KindSimple:
		return nil
	}
	return fmt.Errorf("xmlgen: unknown content node kind %v", n.Kind)
}

// subtreeCount sums instance counts of all element nodes in a content
// subtree (not descending into elements).
func subtreeCount(n *schema.Node, counts map[int]int) int {
	if n.Kind == schema.KindElement {
		return counts[n.ID]
	}
	total := 0
	for _, c := range n.Children {
		total += subtreeCount(c, counts)
	}
	return total
}

// baseToType maps schema base types to relational types.
func baseToType(b schema.BaseType) rel.Type {
	switch b {
	case schema.BaseInt:
		return rel.TInt
	case schema.BaseFloat:
		return rel.TFloat
	default:
		return rel.TString
	}
}

// ParseValue parses leaf text into a typed value.
func ParseValue(b schema.BaseType, text string) (rel.Value, error) {
	switch b {
	case schema.BaseInt:
		i, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return rel.Value{}, fmt.Errorf("xmlgen: bad integer %q: %w", text, err)
		}
		return rel.Int(i), nil
	case schema.BaseFloat:
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return rel.Value{}, fmt.Errorf("xmlgen: bad decimal %q: %w", text, err)
		}
		return rel.Float(f), nil
	default:
		return rel.Str(text), nil
	}
}
