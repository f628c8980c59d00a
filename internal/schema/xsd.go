package schema

import (
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file implements a from-scratch parser and serializer for the XSD
// subset the paper relies on: global and inline element declarations,
// complex types with xs:sequence and xs:choice content, minOccurs /
// maxOccurs occurrence bounds, the simple types xs:string, xs:integer
// (and friends), and xs:decimal, and named complex types (which become
// shared types in the schema tree). Go's standard library has no XSD
// support, so this substrate is built here.

// xsdNS is the XML Schema namespace.
const xsdNS = "http://www.w3.org/2001/XMLSchema"

// ParseXSD reads an XSD document describing a single global root
// element and returns the corresponding schema tree. Annotations are
// read from the extension attribute `annotation`; if the document
// carries none at all, hybrid-inlining annotations are applied so the
// resulting tree is immediately usable.
func ParseXSD(r io.Reader) (*Tree, error) {
	dec := xml.NewDecoder(r)
	p := &xsdParser{types: make(map[string]*typeDef)}
	root, err := p.parse(dec)
	if err != nil {
		return nil, err
	}
	t := NewTree(root)
	if !p.sawAnnotation {
		ApplyHybridInlining(t)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("xsd: invalid schema: %w", err)
	}
	return t, nil
}

// ParseXSDString is ParseXSD over a string.
func ParseXSDString(s string) (*Tree, error) {
	return ParseXSD(strings.NewReader(s))
}

type typeDef struct {
	name    string
	content *Node // template content (sequence/choice subtree), cloned per use
	base    BaseType
	simple  bool
}

type xsdParser struct {
	types         map[string]*typeDef
	root          *Node
	sawAnnotation bool
}

func (p *xsdParser) parse(dec *xml.Decoder) (*Node, error) {
	// First pass: fully decode the token stream into a lightweight DOM
	// keeping child order, since occurrence wrappers depend on it.
	doc, err := decodeXMLTree(dec)
	if err != nil {
		return nil, err
	}
	if doc == nil || local(doc.name) != "schema" {
		return nil, fmt.Errorf("xsd: document root must be xs:schema, got %q", localOrEmpty(doc))
	}
	// Named types first, so element references resolve.
	for _, c := range doc.children {
		switch local(c.name) {
		case "complexType":
			name := c.attr("name")
			if name == "" {
				return nil, fmt.Errorf("xsd: top-level complexType without name")
			}
			content, err := p.typeContent(c, name)
			if err != nil {
				return nil, err
			}
			p.types[name] = content
		case "simpleType":
			name := c.attr("name")
			if name == "" {
				return nil, fmt.Errorf("xsd: top-level simpleType without name")
			}
			base := BaseString
			for _, ch := range c.children {
				if local(ch.name) == "restriction" {
					if b, ok := xsdBaseType(ch.attr("base")); ok {
						base = b
					}
				}
			}
			p.types[name] = &typeDef{name: name, simple: true, base: base}
		}
	}
	var rootElem *rawNode
	for _, c := range doc.children {
		if local(c.name) == "element" {
			if rootElem != nil {
				return nil, fmt.Errorf("xsd: multiple global elements; exactly one root element is supported")
			}
			rootElem = c
		}
	}
	if rootElem == nil {
		return nil, fmt.Errorf("xsd: no global element declaration")
	}
	n, err := p.element(rootElem)
	if err != nil {
		return nil, err
	}
	return n, nil
}

// typeContent builds a typeDef from a complexType raw node. Attributes
// become leaf element nodes named "@attr", prepended to the content
// (they shred to columns like any other leaf and serialize back to
// real XML attributes).
func (p *xsdParser) typeContent(c *rawNode, name string) (*typeDef, error) {
	attrs, err := p.attributes(c)
	if err != nil {
		return nil, err
	}
	for _, ch := range c.children {
		switch local(ch.name) {
		case "sequence":
			content, err := p.particle(ch, KindSequence)
			if err != nil {
				return nil, err
			}
			content.Children = append(attrs, content.Children...)
			return &typeDef{name: name, content: content}, nil
		case "choice":
			content, err := p.particle(ch, KindChoice)
			if err != nil {
				return nil, err
			}
			if len(attrs) > 0 {
				content = &Node{Kind: KindSequence, Children: append(attrs, content)}
			}
			return &typeDef{name: name, content: content}, nil
		}
	}
	if len(attrs) > 0 {
		return &typeDef{name: name, content: &Node{Kind: KindSequence, Children: attrs}}, nil
	}
	return nil, fmt.Errorf("xsd: complexType %q must contain xs:sequence or xs:choice", name)
}

// attributes parses the xs:attribute declarations of a complexType.
func (p *xsdParser) attributes(c *rawNode) ([]*Node, error) {
	var out []*Node
	for _, ch := range c.children {
		if local(ch.name) != "attribute" {
			continue
		}
		name := ch.attr("name")
		if name == "" {
			return nil, fmt.Errorf("xsd: attribute without name")
		}
		base := BaseString
		if b, ok := xsdBaseType(ch.attr("type")); ok {
			base = b
		}
		leaf := Leaf("@"+name, base)
		if ch.attr("use") != "required" {
			out = append(out, &Node{Kind: KindOption, Children: []*Node{leaf}, MaxOccurs: 1})
		} else {
			out = append(out, leaf)
		}
	}
	return out, nil
}

// particle converts an xs:sequence or xs:choice into a constructor node.
func (p *xsdParser) particle(c *rawNode, kind Kind) (*Node, error) {
	node := &Node{Kind: kind}
	for _, ch := range c.children {
		var child *Node
		var err error
		switch local(ch.name) {
		case "element":
			child, err = p.element(ch)
		case "sequence":
			child, err = p.particle(ch, KindSequence)
		case "choice":
			child, err = p.particle(ch, KindChoice)
		case "annotation", "attribute":
			continue // ignored
		default:
			return nil, fmt.Errorf("xsd: unsupported particle xs:%s", local(ch.name))
		}
		if err != nil {
			return nil, err
		}
		child, err = wrapOccurs(child, ch)
		if err != nil {
			return nil, err
		}
		node.Children = append(node.Children, child)
	}
	if len(node.Children) == 0 {
		return nil, fmt.Errorf("xsd: empty xs:%s", strings.ToLower(kindXSDName(kind)))
	}
	return node, nil
}

// element converts an xs:element raw node into an element schema node.
func (p *xsdParser) element(c *rawNode) (*Node, error) {
	name := c.attr("name")
	if name == "" {
		return nil, fmt.Errorf("xsd: element without name")
	}
	n := &Node{Kind: KindElement, Name: name}
	if ann := c.attr("annotation"); ann != "" {
		n.Annotation = ann
		p.sawAnnotation = true
	}
	typ := c.attr("type")
	var inline *rawNode
	for _, ch := range c.children {
		if local(ch.name) == "complexType" {
			inline = ch
			break
		}
	}
	switch {
	case typ != "" && inline != nil:
		return nil, fmt.Errorf("xsd: element %q has both type attribute and inline complexType", name)
	case typ != "":
		if base, ok := xsdBaseType(typ); ok {
			n.Children = []*Node{{Kind: KindSimple, Base: base}}
			return n, nil
		}
		td, ok := p.types[stripPrefix(typ)]
		if !ok {
			return nil, fmt.Errorf("xsd: element %q references unknown type %q", name, typ)
		}
		n.TypeName = td.name
		if td.simple {
			n.Children = []*Node{{Kind: KindSimple, Base: td.base}}
		} else {
			n.Children = []*Node{cloneTemplate(td.content)}
		}
		return n, nil
	case inline != nil:
		td, err := p.typeContent(inline, "")
		if err != nil {
			return nil, fmt.Errorf("xsd: element %q: %w", name, err)
		}
		n.Children = []*Node{td.content}
		return n, nil
	default:
		// No type: treat as xs:string leaf.
		n.Children = []*Node{{Kind: KindSimple, Base: BaseString}}
		return n, nil
	}
}

// wrapOccurs wraps a node in option/repetition constructors according
// to minOccurs/maxOccurs.
func wrapOccurs(n *Node, c *rawNode) (*Node, error) {
	min, max := 1, 1
	if v := c.attr("minOccurs"); v != "" {
		m, err := strconv.Atoi(v)
		if err != nil || m < 0 {
			return nil, fmt.Errorf("xsd: bad minOccurs %q", v)
		}
		min = m
	}
	if v := c.attr("maxOccurs"); v != "" {
		if v == "unbounded" {
			max = Unbounded
		} else {
			m, err := strconv.Atoi(v)
			if err != nil || m < 1 {
				return nil, fmt.Errorf("xsd: bad maxOccurs %q", v)
			}
			max = m
		}
	}
	switch {
	case max == 1 && min == 1:
		return n, nil
	case max == 1 && min == 0:
		return &Node{Kind: KindOption, Children: []*Node{n}, MinOccurs: 0, MaxOccurs: 1}, nil
	default:
		return &Node{Kind: KindRepetition, Children: []*Node{n}, MinOccurs: min, MaxOccurs: max}, nil
	}
}

// cloneTemplate deep-copies a type content template so each use of a
// named type gets distinct nodes (IDs assigned later by NewTree).
func cloneTemplate(n *Node) *Node {
	m := &Node{Kind: n.Kind, Name: n.Name, Base: n.Base, TypeName: n.TypeName,
		MinOccurs: n.MinOccurs, MaxOccurs: n.MaxOccurs}
	m.Children = make([]*Node, len(n.Children))
	for i, c := range n.Children {
		m.Children[i] = cloneTemplate(c)
	}
	return m
}

func xsdBaseType(typ string) (BaseType, bool) {
	switch stripPrefix(typ) {
	case "string", "token", "normalizedString", "anyURI", "date":
		return BaseString, true
	case "integer", "int", "long", "short", "nonNegativeInteger", "positiveInteger":
		return BaseInt, true
	case "decimal", "float", "double":
		return BaseFloat, true
	}
	return 0, false
}

func stripPrefix(s string) string {
	if i := strings.IndexByte(s, ':'); i >= 0 {
		return s[i+1:]
	}
	return s
}

func kindXSDName(k Kind) string {
	if k == KindChoice {
		return "choice"
	}
	return "sequence"
}

// rawNode is a minimal order-preserving XML DOM used while parsing XSD.
type rawNode struct {
	name     xml.Name
	attrs    []xml.Attr
	children []*rawNode
}

func (r *rawNode) attr(name string) string {
	for _, a := range r.attrs {
		if a.Name.Local == name {
			return a.Value
		}
	}
	return ""
}

func local(n xml.Name) string { return n.Local }

func localOrEmpty(r *rawNode) string {
	if r == nil {
		return ""
	}
	return r.name.Local
}

// decodeXMLTree reads the full token stream into rawNodes.
func decodeXMLTree(dec *xml.Decoder) (*rawNode, error) {
	var root *rawNode
	var stack []*rawNode
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xsd: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &rawNode{name: t.Name, attrs: append([]xml.Attr(nil), t.Attr...)}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xsd: multiple document roots")
				}
				root = n
			} else {
				top := stack[len(stack)-1]
				top.children = append(top.children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xsd: unbalanced end element %s", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xsd: empty document")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xsd: unterminated element %s", stack[len(stack)-1].name.Local)
	}
	return root, nil
}

// xmlAttr quotes v as an XML attribute value. Go's %q is not XML
// quoting: a backslash or a control character in a name or an
// annotation would read back changed.
func xmlAttr(v string) string {
	var b strings.Builder
	b.WriteByte('"')
	xml.EscapeText(&b, []byte(v)) // writing to a strings.Builder cannot fail
	b.WriteByte('"')
	return b.String()
}

// WriteXSD serializes the schema tree back to an XSD document,
// including annotation extension attributes so ParseXSD round-trips the
// logical design. Shared types are emitted as named complex types.
func WriteXSD(w io.Writer, t *Tree) error {
	var b strings.Builder
	b.WriteString(`<xs:schema xmlns:xs="` + xsdNS + `">` + "\n")
	// Emit one named complexType per shared type, using the first
	// occurrence as the template.
	emitted := make(map[string]bool)
	var emitType func(n *Node) error
	var emitParticle func(n *Node, indent string) error
	var emitElement func(n *Node, indent string, min, max int) error

	emitElement = func(n *Node, indent string, min, max int) error {
		occ := ""
		if min == 0 && max == 1 {
			occ = ` minOccurs="0"`
		} else if max != 1 {
			occ = fmt.Sprintf(` minOccurs="%d" maxOccurs="%s"`, min, maxStr(max))
		}
		ann := ""
		if n.Annotation != "" {
			ann = " annotation=" + xmlAttr(n.Annotation)
		}
		if n.IsLeaf() {
			typ := n.LeafBase().String()
			if n.TypeName != "" {
				if err := emitType(n); err != nil {
					return err
				}
				typ = n.TypeName
			}
			fmt.Fprintf(&b, "%s<xs:element name=%s type=%s%s%s/>\n", indent, xmlAttr(n.Name), xmlAttr(typ), occ, ann)
			return nil
		}
		if n.TypeName != "" {
			if err := emitType(n); err != nil {
				return err
			}
			fmt.Fprintf(&b, "%s<xs:element name=%s type=%s%s%s/>\n", indent, xmlAttr(n.Name), xmlAttr(n.TypeName), occ, ann)
			return nil
		}
		fmt.Fprintf(&b, "%s<xs:element name=%s%s%s>\n%s <xs:complexType>\n", indent, xmlAttr(n.Name), occ, ann, indent)
		content, attrs := splitAttributes(n.Children[0])
		inner := indent + "  "
		if content != nil {
			wrap := content.Kind != KindSequence && content.Kind != KindChoice
			if wrap {
				// Bare occurrence-wrapped or single-element content
				// must sit inside an xs:sequence to be valid XSD.
				fmt.Fprintf(&b, "%s<xs:sequence>\n", inner)
				if err := emitParticle(content, inner+" "); err != nil {
					return err
				}
				fmt.Fprintf(&b, "%s</xs:sequence>\n", inner)
			} else if err := emitParticle(content, inner); err != nil {
				return err
			}
		}
		for _, at := range attrs {
			use := ""
			if at.optional {
				use = ` use="optional"`
			} else {
				use = ` use="required"`
			}
			fmt.Fprintf(&b, "%s<xs:attribute name=%s type=%s%s/>\n",
				inner, xmlAttr(strings.TrimPrefix(at.leaf.Name, "@")), xmlAttr(at.leaf.LeafBase().String()), use)
		}
		fmt.Fprintf(&b, "%s </xs:complexType>\n%s</xs:element>\n", indent, indent)
		return nil
	}

	emitParticle = func(n *Node, indent string) error {
		switch n.Kind {
		case KindSequence, KindChoice:
			tag := "xs:sequence"
			if n.Kind == KindChoice {
				tag = "xs:choice"
			}
			fmt.Fprintf(&b, "%s<%s>\n", indent, tag)
			for _, c := range n.Children {
				if err := emitParticle(c, indent+" "); err != nil {
					return err
				}
			}
			fmt.Fprintf(&b, "%s</%s>\n", indent, tag)
			return nil
		case KindOption:
			return emitChildWithOccurs(n.Children[0], indent, 0, 1, emitParticle, emitElement)
		case KindRepetition:
			return emitChildWithOccurs(n.Children[0], indent, n.MinOccurs, n.MaxOccurs, emitParticle, emitElement)
		case KindElement:
			return emitElement(n, indent, 1, 1)
		default:
			return fmt.Errorf("xsd: cannot serialize node kind %s", n.Kind)
		}
	}

	emitType = func(n *Node) error {
		if emitted[n.TypeName] {
			return nil
		}
		emitted[n.TypeName] = true
		if n.IsLeaf() {
			fmt.Fprintf(&b, " <xs:simpleType name=%s>\n  <xs:restriction base=%s/>\n </xs:simpleType>\n",
				xmlAttr(n.TypeName), xmlAttr(n.LeafBase().String()))
			return nil
		}
		fmt.Fprintf(&b, " <xs:complexType name=%s>\n", xmlAttr(n.TypeName))
		if err := emitParticle(n.Children[0], "  "); err != nil {
			return err
		}
		b.WriteString(" </xs:complexType>\n")
		return nil
	}

	// Named non-leaf shared types must be declared before use; walk the
	// tree to emit them first.
	var preErr error
	t.Walk(func(n *Node) {
		if preErr == nil && n.Kind == KindElement && n.TypeName != "" {
			preErr = emitType(n)
		}
	})
	if preErr != nil {
		return preErr
	}
	if err := emitElement(t.Root, " ", 1, 1); err != nil {
		return err
	}
	b.WriteString("</xs:schema>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// emitChildWithOccurs serializes an occurrence-wrapped child. Wrapped
// sequences/choices are not representable with plain occurrence
// attributes on xs:element, so they keep the attributes on the particle
// tag; the parser accepts both.
func emitChildWithOccurs(c *Node, indent string, min, max int,
	emitParticle func(*Node, string) error, emitElement func(*Node, string, int, int) error) error {
	if c.Kind == KindElement {
		return emitElement(c, indent, min, max)
	}
	// Occurrence-wrapped constructor: unsupported in our subset writer.
	return fmt.Errorf("xsd: occurrence bounds on %s constructors are not serializable", c.Kind)
}

func maxStr(max int) string {
	if max == Unbounded {
		return "unbounded"
	}
	return strconv.Itoa(max)
}

// attrDecl is an attribute extracted from a content model for
// serialization.
type attrDecl struct {
	leaf     *Node
	optional bool
}

// splitAttributes removes top-level "@name" leaves (possibly
// option-wrapped) from a content model copy and returns them
// separately; the returned content is nil when only attributes remain.
func splitAttributes(content *Node) (*Node, []attrDecl) {
	isAttr := func(n *Node) (*Node, bool, bool) {
		if n.Kind == KindElement && strings.HasPrefix(n.Name, "@") {
			return n, false, true
		}
		if n.Kind == KindOption && len(n.Children) == 1 {
			c := n.Children[0]
			if c.Kind == KindElement && strings.HasPrefix(c.Name, "@") {
				return c, true, true
			}
		}
		return nil, false, false
	}
	if leaf, opt, ok := isAttr(content); ok {
		return nil, []attrDecl{{leaf, opt}}
	}
	if content.Kind != KindSequence {
		return content, nil
	}
	var attrs []attrDecl
	var rest []*Node
	for _, c := range content.Children {
		if leaf, opt, ok := isAttr(c); ok {
			attrs = append(attrs, attrDecl{leaf, opt})
			continue
		}
		rest = append(rest, c)
	}
	if len(rest) == 0 {
		return nil, attrs
	}
	out := &Node{Kind: KindSequence, Children: rest, ID: content.ID}
	if len(attrs) == 0 {
		return content, nil
	}
	return out, attrs
}
