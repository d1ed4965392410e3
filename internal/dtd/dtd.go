// Package dtd parses document type definitions and exposes the schema
// model the FluX rewriting and evaluation machinery consumes: one
// production (content-model regular expression plus its Glushkov
// automaton) per element name, order constraints, cardinality facts, and
// a streaming validator.
//
// DTDs are local tree grammars (paper Section 2): no competing
// nonterminals, so a production is identified by its element name.
package dtd

import (
	"fmt"
	"sort"
	"strings"

	"flux/internal/rex"
)

// DocumentVar is the pseudo element name for the production of the
// document node (the scope of the $ROOT variable): its content model is
// exactly one occurrence of the root element.
const DocumentVar = "#document"

// Production is one <!ELEMENT name model> declaration.
type Production struct {
	// Name is the element name.
	Name string
	// Model is the element-content regular expression. For EMPTY and
	// text-only (#PCDATA) productions it is rex.Epsilon.
	Model rex.Expr
	// Mixed reports whether character data is allowed (#PCDATA present).
	Mixed bool
	// Auto is the Glushkov automaton of Model.
	Auto *rex.Automaton
}

// Schema is a parsed DTD.
type Schema struct {
	// Root is the document element name.
	Root  string
	elems map[string]*Production
	doc   *Production // synthetic production for DocumentVar
	order []string    // declaration order, for deterministic printing
}

// ParseError reports a malformed DTD.
type ParseError struct {
	Line int
	Msg  string
}

// Error implements error.
func (e *ParseError) Error() string {
	return fmt.Sprintf("dtd: line %d: %s", e.Line, e.Msg)
}

// Parse parses DTD text consisting of <!ELEMENT ...> declarations
// (<!ATTLIST ...> declarations and comments are accepted and ignored; the
// data model converts attributes to subelements). The document element is
// inferred as the unique declared element that no content model
// references; use ParseWithRoot to name it explicitly.
func Parse(text string) (*Schema, error) {
	return parse(text, "")
}

// ParseWithRoot parses a DTD with an explicitly designated root element.
func ParseWithRoot(text, root string) (*Schema, error) {
	return parse(text, root)
}

// MustParse is Parse for known-good DTDs (tests, built-in schemas).
func MustParse(text string) *Schema {
	s, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return s
}

func parse(text, root string) (*Schema, error) {
	s := &Schema{elems: make(map[string]*Production)}
	line := 1
	rest := text
	errf := func(format string, args ...any) error {
		return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
	}
	for {
		i := strings.IndexByte(rest, '<')
		if i < 0 {
			if strings.TrimSpace(rest) != "" {
				return nil, errf("stray text %q", strings.TrimSpace(rest))
			}
			break
		}
		if strings.TrimSpace(rest[:i]) != "" {
			return nil, errf("stray text %q", strings.TrimSpace(rest[:i]))
		}
		line += strings.Count(rest[:i], "\n")
		rest = rest[i:]
		switch {
		case strings.HasPrefix(rest, "<!--"):
			end := strings.Index(rest, "-->")
			if end < 0 {
				return nil, errf("unterminated comment")
			}
			line += strings.Count(rest[:end+3], "\n")
			rest = rest[end+3:]
		case strings.HasPrefix(rest, "<!ELEMENT"), strings.HasPrefix(rest, "<!ATTLIST"), strings.HasPrefix(rest, "<!ENTITY"):
			end := strings.IndexByte(rest, '>')
			if end < 0 {
				return nil, errf("unterminated declaration %q", head(rest, 30))
			}
			decl := rest[:end]
			nl := strings.Count(rest[:end+1], "\n")
			rest = rest[end+1:]
			if strings.HasPrefix(decl, "<!ELEMENT") {
				if err := s.addElementDecl(decl[len("<!ELEMENT"):], line); err != nil {
					return nil, err
				}
			}
			line += nl
		default:
			return nil, errf("unexpected input %q", head(rest, 30))
		}
	}
	if len(s.elems) == 0 {
		return nil, errf("no element declarations")
	}
	if root == "" {
		r, err := s.inferRoot()
		if err != nil {
			return nil, err
		}
		root = r
	}
	if _, ok := s.elems[root]; !ok {
		return nil, fmt.Errorf("dtd: root element %q is not declared", root)
	}
	s.Root = root
	docModel := rex.Sym{Name: root}
	s.doc = &Production{Name: DocumentVar, Model: docModel, Auto: rex.MustBuild(docModel)}
	return s, nil
}

func head(s string, n int) string {
	if len(s) > n {
		return s[:n] + "..."
	}
	return s
}

func (s *Schema) addElementDecl(body string, line int) error {
	body = strings.TrimSpace(body)
	sp := strings.IndexAny(body, " \t\n\r(")
	if sp <= 0 {
		return &ParseError{Line: line, Msg: "expected element name and content model"}
	}
	name := strings.TrimSpace(body[:sp])
	model := strings.TrimSpace(body[sp:])
	if name == "" || model == "" {
		return &ParseError{Line: line, Msg: "expected element name and content model"}
	}
	if _, dup := s.elems[name]; dup {
		return &ParseError{Line: line, Msg: fmt.Sprintf("duplicate declaration of element %q", name)}
	}
	p := &Production{Name: name}
	switch {
	case model == "EMPTY":
		p.Model = rex.Epsilon{}
	case model == "ANY":
		return &ParseError{Line: line, Msg: fmt.Sprintf("element %q: ANY content is not supported", name)}
	case model == "(#PCDATA)":
		p.Model, p.Mixed = rex.Epsilon{}, true
	case strings.HasPrefix(model, "(#PCDATA"):
		// Mixed content: (#PCDATA|a|b|...)*
		inner := strings.TrimPrefix(model, "(#PCDATA")
		inner = strings.TrimSpace(inner)
		if !strings.HasSuffix(inner, ")*") && !strings.HasSuffix(inner, ")") {
			return &ParseError{Line: line, Msg: fmt.Sprintf("element %q: malformed mixed content model", name)}
		}
		inner = strings.TrimSuffix(strings.TrimSuffix(inner, "*"), ")")
		var names []rex.Expr
		for _, part := range strings.Split(inner, "|") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			names = append(names, rex.Sym{Name: part})
		}
		if len(names) == 0 {
			p.Model, p.Mixed = rex.Epsilon{}, true
		} else {
			p.Model, p.Mixed = rex.Star{X: rex.Alt{Items: names}}, true
		}
	default:
		e, err := rex.Parse(model)
		if err != nil {
			return &ParseError{Line: line, Msg: fmt.Sprintf("element %q: %v", name, err)}
		}
		p.Model = e
	}
	a, err := rex.Build(p.Model)
	if err != nil {
		return &ParseError{Line: line, Msg: fmt.Sprintf("element %q: %v", name, err)}
	}
	p.Auto = a
	s.elems[name] = p
	s.order = append(s.order, name)
	return nil
}

// inferRoot picks the unique element that is declared but never referenced
// by another element's content model.
func (s *Schema) inferRoot() (string, error) {
	referenced := make(map[string]bool)
	for _, p := range s.elems {
		for _, sym := range rex.Symbols(p.Model) {
			if sym != p.Name {
				referenced[sym] = true
			}
		}
	}
	var roots []string
	for name := range s.elems {
		if !referenced[name] {
			roots = append(roots, name)
		}
	}
	sort.Strings(roots)
	switch len(roots) {
	case 1:
		return roots[0], nil
	case 0:
		return "", fmt.Errorf("dtd: cannot infer root element: every element is referenced (cyclic schema); use ParseWithRoot")
	default:
		return "", fmt.Errorf("dtd: cannot infer root element: candidates %v; use ParseWithRoot", roots)
	}
}

// Production returns the production for the element name, or the synthetic
// document production for DocumentVar. ok is false for undeclared names.
func (s *Schema) Production(name string) (*Production, bool) {
	if name == DocumentVar {
		return s.doc, true
	}
	p, ok := s.elems[name]
	return p, ok
}

// Ord reports the order constraint Ord_elem(first, then) for the content
// model of elem (vacuously true for undeclared elements or symbols).
func (s *Schema) Ord(elem, first, then string) bool {
	p, ok := s.Production(elem)
	if !ok {
		return true
	}
	return p.Auto.Ord(first, then)
}

// AtMostOnce reports whether child occurs at most once among the children
// of elem in every valid document.
func (s *Schema) AtMostOnce(elem, child string) bool {
	p, ok := s.Production(elem)
	if !ok {
		return false
	}
	return p.Auto.AtMostOnce(child)
}

// String renders the schema as DTD text.
func (s *Schema) String() string {
	var b strings.Builder
	for _, name := range s.order {
		p := s.elems[name]
		model := p.Model.String()
		switch {
		case p.Mixed && model == "EMPTY":
			model = "(#PCDATA)"
		case p.Mixed:
			model = "(#PCDATA|" + strings.TrimSuffix(strings.TrimPrefix(model, "("), ")*") + ")*"
		case model != "EMPTY":
			model = "(" + strings.TrimSuffix(strings.TrimPrefix(model, "("), ")") + ")"
		}
		fmt.Fprintf(&b, "<!ELEMENT %s %s>\n", name, model)
	}
	return b.String()
}
