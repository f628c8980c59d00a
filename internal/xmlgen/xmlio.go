package xmlgen

import (
	"bufio"
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"repro/internal/schema"
)

// WriteXML serializes the document as XML text.
func WriteXML(w io.Writer, d *Doc) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(xml.Header); err != nil {
		return err
	}
	if err := writeElem(bw, d.Root, 0); err != nil {
		return err
	}
	return bw.Flush()
}

func writeElem(w *bufio.Writer, e *Elem, depth int) error {
	for i := 0; i < depth; i++ {
		w.WriteByte(' ')
	}
	if e.Leaf() {
		var esc strings.Builder
		if err := xml.EscapeText(&esc, []byte(e.Value.String())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "<%s>%s</%s>\n", e.Node.Name, esc.String(), e.Node.Name)
		return err
	}
	// Children named "@x" are XML attributes of this element.
	fmt.Fprintf(w, "<%s", e.Node.Name)
	for _, c := range e.Children {
		if strings.HasPrefix(c.Node.Name, "@") {
			var esc strings.Builder
			if err := xml.EscapeText(&esc, []byte(c.Value.String())); err != nil {
				return err
			}
			// Escaped, then quoted as XML: Go's %q would add backslash
			// escapes that read back as part of the value.
			fmt.Fprintf(w, " %s=\"%s\"", strings.TrimPrefix(c.Node.Name, "@"), esc.String())
		}
	}
	w.WriteString(">\n")
	for _, c := range e.Children {
		if strings.HasPrefix(c.Node.Name, "@") {
			continue
		}
		if err := writeElem(w, c, depth+1); err != nil {
			return err
		}
	}
	for i := 0; i < depth; i++ {
		w.WriteByte(' ')
	}
	_, err := fmt.Fprintf(w, "</%s>\n", e.Node.Name)
	return err
}

// ParseXML parses XML text into a document aligned with the schema
// tree, resolving each element to its schema node by tag name within
// the enclosing element's content model. The result is validated.
func ParseXML(t *schema.Tree, r io.Reader) (*Doc, error) {
	dec := xml.NewDecoder(r)
	// Per-element lookup: child tag name -> child schema node.
	childIdx := make(map[int]map[string]*schema.Node)
	lookup := func(n *schema.Node) map[string]*schema.Node {
		if m, ok := childIdx[n.ID]; ok {
			return m
		}
		m := make(map[string]*schema.Node)
		for _, c := range n.ElementChildren() {
			if _, dup := m[c.Name]; dup {
				// Ambiguous names within one content model are not
				// supported by name-based alignment.
				m[c.Name] = nil
			} else {
				m[c.Name] = c
			}
		}
		childIdx[n.ID] = m
		return m
	}

	var stack []*Elem
	var root *Elem
	var text strings.Builder
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmlgen: parse: %w", err)
		}
		switch tk := tok.(type) {
		case xml.StartElement:
			var node *schema.Node
			if len(stack) == 0 {
				if tk.Name.Local != t.Root.Name {
					return nil, fmt.Errorf("xmlgen: root element %q, schema expects %q", tk.Name.Local, t.Root.Name)
				}
				node = t.Root
			} else {
				parent := stack[len(stack)-1]
				node = lookup(parent.Node)[tk.Name.Local]
				if node == nil {
					return nil, fmt.Errorf("xmlgen: unexpected or ambiguous element %q under %q",
						tk.Name.Local, parent.Node.Name)
				}
			}
			e := &Elem{Node: node}
			if len(stack) > 0 {
				parent := stack[len(stack)-1]
				parent.Children = append(parent.Children, e)
			} else {
				root = e
			}
			// XML attributes instantiate "@name" schema children.
			if !node.IsLeaf() {
				byName := lookup(node)
				for _, at := range tk.Attr {
					an := byName["@"+at.Name.Local]
					if an == nil {
						return nil, fmt.Errorf("xmlgen: unexpected attribute %q on %q", at.Name.Local, node.Name)
					}
					v, err := ParseValue(an.LeafBase(), at.Value)
					if err != nil {
						return nil, fmt.Errorf("xmlgen: attribute %s: %w", at.Name.Local, err)
					}
					e.Children = append(e.Children, &Elem{Node: an, Value: v})
				}
			}
			stack = append(stack, e)
			text.Reset()
		case xml.CharData:
			text.Write(tk)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmlgen: unbalanced end element %s", tk.Name.Local)
			}
			e := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if e.Leaf() {
				v, err := ParseValue(e.Node.LeafBase(), strings.TrimSpace(text.String()))
				if err != nil {
					return nil, fmt.Errorf("xmlgen: element %s: %w", e.Node.Name, err)
				}
				e.Value = v
			}
			text.Reset()
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmlgen: empty document")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmlgen: unterminated element %s", stack[len(stack)-1].Node.Name)
	}
	d := &Doc{Root: root}
	if err := d.Validate(t); err != nil {
		return nil, err
	}
	return d, nil
}
