package flux

// Differential fuzzing: randomly generated XQuery⁻ queries (schema-aware,
// always closed) run over randomly generated valid documents through the
// FluX streaming engine and both in-memory baselines; all three must
// produce byte-identical output. The naive DOM interpreter is the
// semantics oracle.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"flux/internal/dtd"
	"flux/internal/xq"
)

// fuzzSchemas: different ordering regimes to exercise both streaming and
// buffering schedules.
var fuzzSchemas = []string{
	// no order constraints at all
	`
<!ELEMENT r (a|b|c)*>
<!ELEMENT a (d|e)*>
<!ELEMENT b (#PCDATA)>
<!ELEMENT c (d*,e*)>
<!ELEMENT d (#PCDATA)>
<!ELEMENT e (#PCDATA)>
`,
	// fully ordered
	`
<!ELEMENT r (a*,b*,c?)>
<!ELEMENT a (d,e?)>
<!ELEMENT b (d*)>
<!ELEMENT c (#PCDATA)>
<!ELEMENT d (#PCDATA)>
<!ELEMENT e (#PCDATA)>
`,
	// mixed regimes and a singleton layer (exercises loop merging)
	`
<!ELEMENT r (hdr,grp*)>
<!ELEMENT hdr (k,v)>
<!ELEMENT grp (k,(x|y)*,v?)>
<!ELEMENT k (#PCDATA)>
<!ELEMENT v (#PCDATA)>
<!ELEMENT x (#PCDATA)>
<!ELEMENT y (#PCDATA)>
`,
	// deep nesting with optional layers
	`
<!ELEMENT r (s*)>
<!ELEMENT s (t?,u*)>
<!ELEMENT t (w,x?)>
<!ELEMENT u (w*)>
<!ELEMENT w (#PCDATA)>
<!ELEMENT x (#PCDATA)>
`,
	// recursive schema
	`
<!ELEMENT part (pid,part*)>
<!ELEMENT pid (#PCDATA)>
`,
	// join-shaped: two ordered runs of at least three items each, with
	// optional and repeated key fields, so value joins have several
	// candidates and multi-valued keys
	`
<!ELEMENT j (l,l,l,l*,m,m,m,m*)>
<!ELEMENT l (k,k?,v*)>
<!ELEMENT m (k*,w,v?)>
<!ELEMENT k (#PCDATA)>
<!ELEMENT v (#PCDATA)>
<!ELEMENT w (#PCDATA)>
`,
}

// queryGen builds random closed queries whose paths follow the schema.
type queryGen struct {
	r      *rand.Rand
	schema *dtd.Schema
	nvars  int
	joins  int // value-join atoms generated (see randJoinAtom)
	// joinBias makes every for-loop filter and every condition over two
	// or more variables a value join, when a join atom can be formed.
	joinBias bool
}

type binding struct {
	v    string
	elem string
}

func (g *queryGen) freshVar() string {
	g.nvars++
	return fmt.Sprintf("$v%d", g.nvars)
}

// childSteps returns the possible child element names of elem.
func (g *queryGen) childSteps(elem string) []string {
	p, ok := g.schema.Production(elem)
	if !ok {
		return nil
	}
	return p.Auto.Symbols()
}

func (g *queryGen) randPath(elem string, maxLen int) (xq.Path, string) {
	var path xq.Path
	cur := elem
	n := 1 + g.r.Intn(maxLen)
	for i := 0; i < n; i++ {
		steps := g.childSteps(cur)
		if len(steps) == 0 {
			break
		}
		s := steps[g.r.Intn(len(steps))]
		path = append(path, s)
		cur = s
	}
	if len(path) == 0 {
		return nil, ""
	}
	return path, cur
}

var fuzzConsts = []string{"alpha", "beta", "7", "1991", "42"}

// joinTexts is the #PCDATA vocabulary of documents for queries with
// value joins: numbers equal as numbers but not as strings, signed
// zeros, NaN, non-numeric values, and repeats, so join keys collide
// across the numeric and string comparison rules.
var joinTexts = []string{"7", "7.0", "07", "0", "-0", "7", "x", "x", "NaN", "3.5"}

// fuzzScales are the multipliers of scaled join operands (k * $v/path).
var fuzzScales = []float64{2, 0.5, 10}

func (g *queryGen) randCond(vars []binding) xq.Cond {
	switch g.r.Intn(6) {
	case 0:
		l := g.randCondAtom(vars)
		r := g.randCondAtom(vars)
		if g.r.Intn(2) == 0 {
			return &xq.And{L: l, R: r}
		}
		return &xq.Or{L: l, R: r}
	case 1:
		return &xq.Not{X: g.randCondAtom(vars)}
	default:
		return g.randCondAtom(vars)
	}
}

func (g *queryGen) randCondAtom(vars []binding) xq.Cond {
	if len(vars) > 1 && (g.joinBias || g.r.Intn(3) == 0) {
		if c := g.randJoinAtom(vars); c != nil {
			return c
		}
	}
	b := vars[g.r.Intn(len(vars))]
	path, _ := g.randPath(b.elem, 2)
	if path == nil {
		return xq.True{}
	}
	switch g.r.Intn(4) {
	case 0:
		return &xq.Exists{Var: b.v, Path: path}
	case 1:
		return &xq.Exists{Var: b.v, Path: path, Neg: true}
	default:
		ops := []xq.RelOp{xq.OpEq, xq.OpNe, xq.OpLt, xq.OpGt, xq.OpLe, xq.OpGe}
		return &xq.Cmp{
			L:  xq.PathOp(b.v, path),
			R:  xq.ConstOp(fuzzConsts[g.r.Intn(len(fuzzConsts))]),
			Op: ops[g.r.Intn(len(ops))],
		}
	}
}

// randJoinAtom compares a path on the innermost variable — the loop a
// join would index — with a path on an outer variable, under any of the
// six operators and sometimes scaling one side.
func (g *queryGen) randJoinAtom(vars []binding) xq.Cond {
	inner := vars[len(vars)-1]
	outer := vars[g.r.Intn(len(vars)-1)]
	ip := g.fieldPath(inner.elem)
	op := g.fieldPath(outer.elem)
	if ip == nil || op == nil {
		return nil
	}
	l, r := xq.PathOp(inner.v, ip), xq.PathOp(outer.v, op)
	switch g.r.Intn(4) {
	case 0:
		l.Scale = fuzzScales[g.r.Intn(len(fuzzScales))]
	case 1:
		r.Scale = fuzzScales[g.r.Intn(len(fuzzScales))]
	}
	if g.r.Intn(2) == 0 {
		l, r = r, l
	}
	ops := []xq.RelOp{xq.OpEq, xq.OpNe, xq.OpLt, xq.OpGt, xq.OpLe, xq.OpGe}
	g.joins++
	return &xq.Cmp{L: l, R: r, Op: ops[g.r.Intn(len(ops))]}
}

// joinQuery builds the shape of a value join: an outer loop over a
// random path, and under it a filtered inner loop over another, whose
// filter (join-biased) relates the two loop variables.
func (g *queryGen) joinQuery(root binding) xq.Expr {
	op, oelem := g.itemPath(root.elem)
	ip, ielem := g.itemPath(root.elem)
	if op == nil || ip == nil {
		return g.build([]binding{root}, 4)
	}
	a, b := g.freshVar(), g.freshVar()
	vars := []binding{root, {a, oelem}, {b, ielem}}
	inner := &xq.For{Var: b, Src: root.v, Path: ip, Where: g.randCond(vars), Body: g.build(vars, 2)}
	return &xq.For{Var: a, Src: root.v, Path: op, Body: xq.NewSeq(&xq.Str{S: "<o/>"}, inner)}
}

// itemPath is randPath biased toward elements with children — the
// items of a join, whose fields the join compares.
func (g *queryGen) itemPath(elem string) (xq.Path, string) {
	path, end := g.randPath(elem, 3)
	for try := 0; try < 4 && path != nil && len(g.childSteps(end)) == 0; try++ {
		path, end = g.randPath(elem, 3)
	}
	return path, end
}

// fieldPath is randPath biased toward leaf elements — the fields a
// join compares.
func (g *queryGen) fieldPath(elem string) xq.Path {
	path, end := g.randPath(elem, 2)
	for try := 0; try < 4 && path != nil && len(g.childSteps(end)) > 0; try++ {
		path, end = g.randPath(elem, 2)
	}
	return path
}

func (g *queryGen) build(vars []binding, depth int) xq.Expr {
	if depth <= 0 {
		return &xq.Str{S: "leaf"}
	}
	switch g.r.Intn(10) {
	case 0, 1:
		return &xq.Str{S: fmt.Sprintf("s%d", g.r.Intn(5))}
	case 2:
		// Whole-subtree output: rare, forces buffering.
		b := vars[g.r.Intn(len(vars))]
		return &xq.VarOut{Var: b.v}
	case 3:
		b := vars[g.r.Intn(len(vars))]
		if path, _ := g.randPath(b.elem, 2); path != nil {
			return &xq.PathOut{Var: b.v, Path: path}
		}
		return &xq.Str{S: "p"}
	case 4:
		return &xq.If{Cond: g.randCond(vars), Then: g.build(vars, depth-1)}
	case 5, 6:
		return xq.NewSeq(g.build(vars, depth-1), g.build(vars, depth-1))
	default:
		b := vars[g.r.Intn(len(vars))]
		path, elem := g.randPath(b.elem, 2)
		if path == nil {
			return &xq.Str{S: "f"}
		}
		v := g.freshVar()
		f := &xq.For{Var: v, Src: b.v, Path: path}
		if g.joinBias || g.r.Intn(3) == 0 {
			f.Where = g.randCond(append(vars, binding{v, elem}))
		}
		f.Body = g.build(append(vars, binding{v, elem}), depth-1)
		return f
	}
}

func TestFuzzDifferential(t *testing.T) {
	const queriesPerSchema = 120
	const docsPerQuery = 3
	totalSkipped, total, joinQueries, joinAtoms := 0, 0, 0, 0
	strategies := map[string]int{}
	for si, dtdText := range fuzzSchemas {
		schema := dtd.MustParse(dtdText)
		// The second half of the seeds builds join-shaped queries.
		for seed := 0; seed < 2*queriesPerSchema; seed++ {
			g := &queryGen{r: rand.New(rand.NewSource(int64(si*10000 + seed))), schema: schema,
				joinBias: seed >= queriesPerSchema}
			root := binding{xq.RootVar, dtd.DocumentVar}
			var queryAST xq.Expr
			if g.joinBias {
				queryAST = g.joinQuery(root)
			} else {
				queryAST = g.build([]binding{root}, 4)
			}
			queryText := xq.Print(queryAST)
			total++
			q, err := PrepareWithSchema(queryText, schema)
			if err != nil {
				// Engine limitations (duplicate on-handlers for one
				// element, cross-scope data not provably complete) are
				// rejected at compile time; rejecting is sound, silently
				// wrong answers are not.
				totalSkipped++
				continue
			}
			var gen dtd.GenOptions
			if g.joins > 0 {
				gen.Texts = joinTexts
				joinQueries++
				joinAtoms += g.joins
				for _, line := range strings.Split(q.PlanText(), "\n") {
					if i := strings.LastIndex(line, ": "); i >= 0 && strings.HasPrefix(strings.TrimSpace(line), "join ") {
						strategies[line[i+2:]]++
					}
				}
			}
			for d := 0; d < docsPerQuery; d++ {
				doc := dtd.RandomDocument(schema, int64(seed*31+d), gen)
				outF, _, err := q.RunString(doc, Options{Engine: FluX})
				if err != nil {
					t.Fatalf("schema %d seed %d: flux run: %v\nquery: %s\ndoc: %s\nplan:\n%s",
						si, seed, err, queryText, doc, q.PlanText())
				}
				outN, _, err := q.RunString(doc, Options{Engine: Naive})
				if err != nil {
					t.Fatalf("schema %d seed %d: naive run: %v\nquery: %s", si, seed, err, queryText)
				}
				outP, _, err := q.RunString(doc, Options{Engine: Projection})
				if err != nil {
					t.Fatalf("schema %d seed %d: projection run: %v\nquery: %s", si, seed, err, queryText)
				}
				if outF != outN {
					t.Fatalf("schema %d seed %d doc %d: flux differs from oracle\nquery: %s\nflux:  %q\noracle: %q\nFluX: %s\nplan:\n%s\ndoc: %s",
						si, seed, d, queryText, outF, outN, q.FluxText(), q.PlanText(), doc)
				}
				if outP != outN {
					t.Fatalf("schema %d seed %d doc %d: projection differs from oracle\nquery: %s\nproj:  %q\noracle: %q\ndoc: %s",
						si, seed, d, queryText, outP, outN, doc)
				}
			}
		}
	}
	if totalSkipped*4 > total {
		t.Errorf("too many queries rejected: %d of %d; generator or engine too restrictive", totalSkipped, total)
	}
	if joinQueries == 0 || strategies["hash"] == 0 || strategies["sorted"] == 0 {
		t.Errorf("generator produced no indexed joins: %d join queries, strategies %v", joinQueries, strategies)
	}
	t.Logf("fuzz: %d queries, %d rejected at compile time; %d accepted queries with %d join atoms, join loops by strategy %v",
		total, totalSkipped, joinQueries, joinAtoms, strategies)
}

// TestFuzzNormalizeEquivalence: normalization and loop merging preserve
// semantics on the oracle across random queries and documents.
func TestFuzzNormalizeEquivalence(t *testing.T) {
	for si, dtdText := range fuzzSchemas {
		schema := dtd.MustParse(dtdText)
		for seed := 0; seed < 80; seed++ {
			g := &queryGen{r: rand.New(rand.NewSource(int64(si*999 + seed))), schema: schema}
			ast := g.build([]binding{{xq.RootVar, dtd.DocumentVar}}, 4)
			norm := xq.MergeLoops(xq.Normalize(ast), schema)
			if !xq.IsNormalForm(norm) {
				t.Fatalf("schema %d seed %d: not normal form: %s", si, seed, xq.Print(norm))
			}
			doc := dtd.RandomDocument(schema, int64(seed), dtd.GenOptions{})
			a := naiveEval(t, ast, doc)
			b := naiveEval(t, norm, doc)
			if a != b {
				t.Fatalf("schema %d seed %d: normalization changed semantics\nquery: %s\nnorm:  %s\n a: %q\n b: %q\ndoc: %s",
					si, seed, xq.Print(ast), xq.Print(norm), a, b, doc)
			}
		}
	}
}

func naiveEval(t *testing.T, ast xq.Expr, doc string) string {
	t.Helper()
	var sb strings.Builder
	q := &Query{source: ast}
	if _, err := q.Run(strings.NewReader(doc), &sb, Options{Engine: Naive}); err != nil {
		t.Fatalf("naive eval: %v", err)
	}
	return sb.String()
}
