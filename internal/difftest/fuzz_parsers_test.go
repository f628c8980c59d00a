package difftest

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/xmlgen"
)

// The front-door parsers' fuzz targets. Their seed corpora under
// testdata/fuzz/Fuzz{ParseXSD,ParseDTD,ParseXML} are what this
// package's generators emit for parserSeeds (the gen-* files): WriteXSD
// of RandomSchema, the schema's DTD form (dtdOf), and WriteXML of
// RandomDoc. TestParserSeedCorpora checks them against the generators;
// -update-parser-seeds rewrites them. The other files are inputs that
// failed once: both writers quoted attribute values with Go's %q, so a
// newline in an XSD annotation or a backslash in an XML attribute read
// back changed.

var updateParserSeeds = flag.Bool("update-parser-seeds", false, "rewrite the parser fuzz targets' seed corpora from the generators")

// parserSeeds are the generator seeds of the checked-in corpora.
var parserSeeds = []int64{1, 2, 3, 5, 8, 13}

// parserSeedSchema is the schema tree of generator seed s.
func parserSeedSchema(s int64) *schema.Tree {
	return RandomSchema(rand.New(rand.NewSource(mix(s, 1))))
}

// FuzzParseXSD: an XSD that ParseXSD accepts writes back to a fixed
// point — WriteXSD(ParseXSD(WriteXSD(t))) is WriteXSD(t), byte for
// byte.
func FuzzParseXSD(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		tree, err := schema.ParseXSDString(src)
		if err != nil {
			t.Skip()
		}
		var first bytes.Buffer
		if err := schema.WriteXSD(&first, tree); err != nil {
			t.Fatalf("WriteXSD of an accepted schema: %v", err)
		}
		again, err := schema.ParseXSD(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written form of an accepted schema does not parse: %v\n%s", err, first.String())
		}
		var second bytes.Buffer
		if err := schema.WriteXSD(&second, again); err != nil {
			t.Fatalf("WriteXSD of the re-parsed schema: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("WriteXSD is not a fixed point:\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
		}
	})
}

// FuzzParseDTD: ParseDTD returns the parser's own error or a valid
// tree, never both, never neither, and never panics.
func FuzzParseDTD(f *testing.F) {
	f.Fuzz(func(t *testing.T, src, root string) {
		tree, err := schema.ParseDTDString(src, root)
		switch {
		case err != nil && tree != nil:
			t.Fatalf("both a tree and an error: %v", err)
		case err != nil:
			if !strings.HasPrefix(err.Error(), "dtd: ") {
				t.Fatalf("error %q is not the DTD parser's", err)
			}
		case tree == nil:
			t.Fatal("neither a tree nor an error")
		default:
			if err := tree.Validate(); err != nil {
				t.Fatalf("accepted DTD gives an invalid tree: %v", err)
			}
		}
	})
}

// FuzzParseXML: a document that ParseXML accepts against generator
// seed s's schema writes back to a fixed point — WriteXML(ParseXML(
// WriteXML(d))) is WriteXML(d), byte for byte.
func FuzzParseXML(f *testing.F) {
	f.Fuzz(func(t *testing.T, s int64, src string) {
		tree := parserSeedSchema(s)
		doc, err := xmlgen.ParseXML(tree, strings.NewReader(src))
		if err != nil {
			t.Skip()
		}
		var first bytes.Buffer
		if err := xmlgen.WriteXML(&first, doc); err != nil {
			t.Fatalf("WriteXML of an accepted document: %v", err)
		}
		again, err := xmlgen.ParseXML(tree, bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written form of an accepted document does not parse: %v\n%s", err, first.String())
		}
		var second bytes.Buffer
		if err := xmlgen.WriteXML(&second, again); err != nil {
			t.Fatalf("WriteXML of the re-parsed document: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("WriteXML is not a fixed point:\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
		}
	})
}

// dtdOf writes tree's content models as DTD element declarations.
// Attributes have no DTD content form and are left out; a bounded
// repetition becomes "*". Generated names are unique except
// shared-type twins, which are one leaf declared once.
func dtdOf(tree *schema.Tree) string {
	var b strings.Builder
	declared := map[string]bool{}
	var decl func(n *schema.Node)
	var particle func(n *schema.Node) string
	particle = func(n *schema.Node) string {
		switch n.Kind {
		case schema.KindElement:
			if strings.HasPrefix(n.Name, "@") {
				return ""
			}
			decl(n)
			return n.Name
		case schema.KindOption, schema.KindRepetition:
			p := particle(n.Children[0])
			switch {
			case p == "":
				return ""
			case n.Kind == schema.KindOption:
				return p + "?"
			}
			return p + "*"
		}
		sep := ", "
		if n.Kind == schema.KindChoice {
			sep = " | "
		}
		var parts []string
		for _, c := range n.Children {
			if p := particle(c); p != "" {
				parts = append(parts, p)
			}
		}
		return "(" + strings.Join(parts, sep) + ")"
	}
	decl = func(n *schema.Node) {
		if declared[n.Name] {
			return
		}
		declared[n.Name] = true
		model := "(#PCDATA)"
		if c := n.Children[0]; c.Kind != schema.KindSimple {
			if model = particle(c); !strings.HasPrefix(model, "(") {
				model = "(" + model + ")"
			}
		}
		fmt.Fprintf(&b, "<!ELEMENT %s %s>\n", n.Name, model)
	}
	decl(tree.Root)
	return b.String()
}

// parserSeed is one generator seed's input to each target.
type parserSeed struct {
	s             int64
	xsd, dtd, xml string
}

// parserSeedInputs renders every generator seed's schema as XSD and
// DTD, and a document of it as XML.
func parserSeedInputs(t *testing.T) []parserSeed {
	var out []parserSeed
	for _, s := range parserSeeds {
		tree := parserSeedSchema(s)
		var xsd, xml bytes.Buffer
		if err := schema.WriteXSD(&xsd, tree); err != nil {
			t.Fatal(err)
		}
		doc, err := RandomDoc(tree, rand.New(rand.NewSource(mix(s, 2))), 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := xmlgen.WriteXML(&xml, doc); err != nil {
			t.Fatal(err)
		}
		out = append(out, parserSeed{s: s, xsd: xsd.String(), dtd: dtdOf(tree), xml: xml.String()})
	}
	return out
}

// TestParserSeedCorpora pins the parser fuzz targets' checked-in seeds
// (go test fuzz v1 files) to the generators, and checks that every
// parser accepts its seeds — a refused seed would only exercise the
// refusal.
func TestParserSeedCorpora(t *testing.T) {
	files := map[string]string{}
	for _, in := range parserSeedInputs(t) {
		name := "gen-" + strconv.FormatInt(in.s, 10)
		files[filepath.Join("FuzzParseXSD", name)] = "go test fuzz v1\nstring(" + strconv.Quote(in.xsd) + ")\n"
		files[filepath.Join("FuzzParseDTD", name)] = "go test fuzz v1\nstring(" + strconv.Quote(in.dtd) + ")\nstring(" + strconv.Quote(RootName) + ")\n"
		files[filepath.Join("FuzzParseXML", name)] = fmt.Sprintf("go test fuzz v1\nint64(%d)\nstring(%s)\n", in.s, strconv.Quote(in.xml))

		if _, err := schema.ParseXSDString(in.xsd); err != nil {
			t.Errorf("seed %d: XSD refused: %v", in.s, err)
		}
		if _, err := schema.ParseDTDString(in.dtd, RootName); err != nil {
			t.Errorf("seed %d: DTD refused: %v\n%s", in.s, err, in.dtd)
		}
		if _, err := xmlgen.ParseXML(parserSeedSchema(in.s), strings.NewReader(in.xml)); err != nil {
			t.Errorf("seed %d: XML refused: %v", in.s, err)
		}
	}
	for path, want := range files {
		full := filepath.Join("testdata", "fuzz", path)
		if *updateParserSeeds {
			if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(full, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got, err := os.ReadFile(full); err != nil {
			t.Errorf("%v (rerun with -update-parser-seeds)", err)
		} else if string(got) != want {
			t.Errorf("%s differs from the generators' output (rerun with -update-parser-seeds)", full)
		}
	}
}
