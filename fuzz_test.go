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

// fuzzQuery is one query of the differential corpus.
type fuzzQuery struct {
	si, seed int
	dtdText  string
	schema   *dtd.Schema
	text     string // the generated AST, printed
	joins    int    // value-join atoms in it
}

// fuzzRegressions are fixed corpus entries beyond the generated ones:
// queries whose Figure 2 schedule put a second on handler for one
// element in a scope, which the engine refuses, or re-buffered under
// on-first past(r) what an on r scope already held.
var fuzzRegressions = []struct {
	si   int
	text string
}{
	{1, `{ if empty($ROOT/r/a) and $ROOT/r/b >= 7 then { for $v1 in $ROOT/r/a return s2 } s0 { $ROOT/r/a } }`},
	{4, `{ if $ROOT/part/pid < 7 then { $ROOT/part } leaf leaf } { for $v1 in $ROOT/part return { if $ROOT/part/pid != 1991 then leaf } leaf leaf }`},
	{5, `{ for $v1 in $ROOT/j/m where exists $ROOT/j return leaf } { $ROOT/j/l } { for $v2 in $ROOT/j return leaf leaf } { if exists $ROOT/j then { if empty($ROOT/j/l) then leaf } { $ROOT/j/l } }`},
	{2, `{ for $v1 in $ROOT/r/hdr return leaf leaf } s3 { if not exists $ROOT/r then { for $v2 in $ROOT/r/hdr where empty($v2/k) return leaf leaf } }`},
}

// genQuery generates the query of fuzz schema si and seed; a join-biased
// query has the value-join shape of joinQuery.
func genQuery(si int, seed int64, joinBias bool) fuzzQuery {
	dtdText := fuzzSchemas[si]
	schema := dtd.MustParse(dtdText)
	g := &queryGen{r: rand.New(rand.NewSource(int64(si)*10000 + seed)), schema: schema, joinBias: joinBias}
	root := binding{xq.RootVar, dtd.DocumentVar}
	var queryAST xq.Expr
	if joinBias {
		queryAST = g.joinQuery(root)
	} else {
		queryAST = g.build([]binding{root}, 4)
	}
	return fuzzQuery{si: si, seed: int(seed), dtdText: dtdText, schema: schema,
		text: xq.Print(queryAST), joins: g.joins}
}

// fuzzCorpus calls f for the differential corpus: 240 queries per fuzz
// schema, the second half of the seeds join-shaped, then the fixed
// fuzzRegressions.
func fuzzCorpus(f func(fuzzQuery)) {
	const queriesPerSchema = 120
	for si := range fuzzSchemas {
		for seed := 0; seed < 2*queriesPerSchema; seed++ {
			f(genQuery(si, int64(seed), seed >= queriesPerSchema))
		}
	}
	for i, r := range fuzzRegressions {
		f(fuzzQuery{si: r.si, seed: 2*queriesPerSchema + i, dtdText: fuzzSchemas[r.si],
			schema: dtd.MustParse(fuzzSchemas[r.si]), text: r.text})
	}
}

// docs returns the generated documents a corpus query runs over.
func (fq fuzzQuery) docs(n int, gen dtd.GenOptions) []string {
	if fq.joins > 0 {
		gen.Texts = joinTexts
	}
	out := make([]string, n)
	for d := range out {
		out[d] = dtd.RandomDocument(fq.schema, int64(fq.seed*31+d), gen)
	}
	return out
}

func TestFuzzDifferential(t *testing.T) {
	total, joinQueries, joinAtoms := 0, 0, 0
	strategies := map[string]int{}
	fuzzCorpus(func(fq fuzzQuery) {
		total++
		q := checkDifferential(t, fq)
		if fq.joins > 0 {
			joinQueries++
			joinAtoms += fq.joins
			for _, line := range strings.Split(q.PlanText(), "\n") {
				if i := strings.LastIndex(line, ": "); i >= 0 && strings.HasPrefix(strings.TrimSpace(line), "join ") {
					strategies[line[i+2:]]++
				}
			}
		}
	})
	if joinQueries == 0 || strategies["hash"] == 0 || strategies["sorted"] == 0 {
		t.Errorf("generator produced no indexed joins: %d join queries, strategies %v", joinQueries, strategies)
	}
	t.Logf("fuzz: %d queries; %d join queries with %d join atoms, join loops by strategy %v",
		total, joinQueries, joinAtoms, strategies)
}

// FuzzSchedule runs the differential check on generated queries beyond
// the corpus: the input picks the fuzz schema (mod its count) and the
// generator seed, whose parity picks the join shape. Every generated
// query must schedule into a plan the engine runs, with the oracle's
// output.
func FuzzSchedule(f *testing.F) {
	f.Add(0, int64(51))
	f.Add(5, int64(3))
	f.Add(4, int64(1001))
	f.Fuzz(func(t *testing.T, si int, seed int64) {
		si %= len(fuzzSchemas)
		if si < 0 {
			si += len(fuzzSchemas)
		}
		checkDifferential(t, genQuery(si, seed, seed%2 != 0))
	})
}

// checkDifferential prepares a generated query, which must succeed, and
// runs it over three generated documents through the FluX engine and
// both baselines, which must agree with the naive oracle.
func checkDifferential(t *testing.T, fq fuzzQuery) *Query {
	t.Helper()
	// A printed AST that does not parse back is a printer or parser bug;
	// a core or engine error rejects a query of the fragment.
	if _, err := xq.Parse(fq.text); err != nil {
		t.Fatalf("schema %d seed %d: printed query does not parse: %v\nquery: %s", fq.si, fq.seed, err, fq.text)
	}
	q, err := PrepareWithSchema(fq.text, fq.schema)
	if err != nil {
		t.Fatalf("schema %d seed %d: rejected: %v\nquery: %s", fq.si, fq.seed, err, fq.text)
	}
	for d, doc := range fq.docs(3, dtd.GenOptions{}) {
		outF, _, err := q.RunString(doc, Options{Engine: FluX})
		if err != nil {
			t.Fatalf("schema %d seed %d: flux run: %v\nquery: %s\ndoc: %s\nplan:\n%s",
				fq.si, fq.seed, err, fq.text, doc, q.PlanText())
		}
		outN, _, err := q.RunString(doc, Options{Engine: Naive})
		if err != nil {
			t.Fatalf("schema %d seed %d: naive run: %v\nquery: %s", fq.si, fq.seed, err, fq.text)
		}
		outP, _, err := q.RunString(doc, Options{Engine: Projection})
		if err != nil {
			t.Fatalf("schema %d seed %d: projection run: %v\nquery: %s", fq.si, fq.seed, err, fq.text)
		}
		if outF != outN {
			t.Fatalf("schema %d seed %d doc %d: flux differs from oracle\nquery: %s\nflux:  %q\noracle: %q\nFluX: %s\nplan:\n%s\ndoc: %s",
				fq.si, fq.seed, d, fq.text, outF, outN, q.FluxText(), q.PlanText(), doc)
		}
		if outP != outN {
			t.Fatalf("schema %d seed %d doc %d: projection differs from oracle\nquery: %s\nproj:  %q\noracle: %q\ndoc: %s",
				fq.si, fq.seed, d, fq.text, outP, outN, doc)
		}
	}
	return q
}

// TestScheduleNeverBuffersMore: on every corpus query and document, the
// Figure 2 schedule buffers at most what the Example 3.4 schedule, which
// holds every projected path until the end of the stream, buffers, and
// both produce the same output.
func TestScheduleNeverBuffersMore(t *testing.T) {
	runs := 0
	fuzzCorpus(func(fq fuzzQuery) {
		q, err := PrepareWithSchema(fq.text, fq.schema)
		if err != nil {
			t.Fatalf("schema %d seed %d: %v", fq.si, fq.seed, err)
		}
		u, err := PrepareUnscheduled(fq.text, fq.dtdText)
		if err != nil {
			t.Fatalf("schema %d seed %d: unscheduled: %v", fq.si, fq.seed, err)
		}
		for d, doc := range fq.docs(8, dtd.GenOptions{MaxRepeat: 8}) {
			outS, stS, err := q.RunString(doc, Options{})
			if err != nil {
				t.Fatalf("schema %d seed %d: %v", fq.si, fq.seed, err)
			}
			outU, stU, err := u.RunString(doc, Options{})
			if err != nil {
				t.Fatalf("schema %d seed %d: unscheduled: %v", fq.si, fq.seed, err)
			}
			if outS != outU {
				t.Fatalf("schema %d seed %d doc %d: schedules disagree\nquery: %s\nFluX: %s\nscheduled:   %q\nunscheduled: %q\ndoc: %s",
					fq.si, fq.seed, d, fq.text, q.FluxText(), outS, outU, doc)
			}
			if stS.PeakBufferBytes > stU.PeakBufferBytes {
				t.Errorf("schema %d seed %d doc %d: scheduled peak %d > unscheduled peak %d\nquery: %s\nFluX: %s",
					fq.si, fq.seed, d, stS.PeakBufferBytes, stU.PeakBufferBytes, fq.text, q.FluxText())
			}
			runs++
		}
	})
	t.Logf("%d query×document runs", runs)
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
