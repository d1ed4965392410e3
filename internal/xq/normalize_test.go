package xq

import (
	"strings"
	"testing"
	"testing/quick"

	"flux/internal/dtd"
)

// TestNormalizeExample42 reproduces the paper's Example 4.2: XMP Q1 and
// its normalization Q1'.
func TestNormalizeExample42(t *testing.T) {
	q1 := MustParse(`<bib>
{ for $b in $ROOT/bib/book
  where $b/publisher = "Addison-Wesley" and $b/year > 1991
  return <book> {$b/year} {$b/title} </book> }
</bib>`)
	got := Print(Normalize(q1))
	chi := `$b/publisher = 'Addison-Wesley' and $b/year > 1991`
	want := `<bib> ` +
		`{ for $bib in $ROOT/bib return ` +
		`{ for $b in $bib/book return ` +
		`{ if ` + chi + ` then <book> } ` +
		`{ for $year in $b/year return { if ` + chi + ` then { $year } } } ` +
		`{ for $title in $b/title return { if ` + chi + ` then { $title } } } ` +
		`{ if ` + chi + ` then </book> } } } ` +
		`</bib>`
	if got != want {
		t.Errorf("normalization mismatch:\n got %s\nwant %s", got, want)
	}
}

// TestNormalizeExample44 checks the shape of Q2's normalization (the
// paper omits Q2 and shows Q2' directly).
func TestNormalizeExample44(t *testing.T) {
	q2p := MustParse(`<results>
{ for $bib in $ROOT/bib return
  { for $b in $bib/book return
    { for $t in $b/title return
      { for $a in $b/author return
        <result> {$t} {$a} </result> } } } }
</results>`)
	n := Normalize(q2p)
	if !IsNormalForm(n) {
		t.Fatalf("not in normal form: %s", Print(n))
	}
	// Already normalized: normalization must be the identity here.
	if Print(n) != Print(q2p) {
		t.Errorf("already-normal query changed:\n got %s\nwant %s", Print(n), Print(q2p))
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	queries := []string{
		`<bib> { for $b in $ROOT/bib/book where $b/publisher = 'X' return <book> {$b/year} </book> } </bib>`,
		`{ $ROOT/bib/book/title }`,
		`{ if $x/a = 1 then { if $x/b = 2 then out } }`,
		`{ for $p in /site/people/person where empty($p/person_income) return {$p} }`,
		`plain text`,
		``,
	}
	for _, in := range queries {
		n1 := Normalize(MustParse(in))
		if !IsNormalForm(n1) {
			t.Errorf("Normalize(%q) not in normal form: %s", in, Print(n1))
		}
		n2 := Normalize(n1)
		if Print(n1) != Print(n2) {
			t.Errorf("Normalize not idempotent for %q:\n  %s\n  %s", in, Print(n1), Print(n2))
		}
	}
}

func TestNormalizeConditionalFusion(t *testing.T) {
	q := MustParse(`{ if $x/a = 1 then { if $x/b = 2 then { for $y in $x/c return out } } }`)
	got := Print(Normalize(q))
	want := `{ for $y in $x/c return { if ($x/a = 1 and $x/b = 2) and true then out } }`
	// The exact conjunction nesting depends on distribution order; accept
	// the semantically-identical variant without the trailing "and true".
	alt := `{ for $y in $x/c return { if $x/a = 1 and $x/b = 2 then out } }`
	if got != want && got != alt {
		t.Errorf("normalization = %s, want %s", got, alt)
	}
}

func TestNormalizeUniquifiesVars(t *testing.T) {
	q := MustParse(`{ for $x in $ROOT/a return { $x } } { for $x in $ROOT/b return { $x } }`)
	n := Normalize(q)
	seen := map[string]int{}
	Walk(n, func(e Expr) {
		if f, ok := e.(*For); ok {
			seen[f.Var]++
		}
	})
	for v, cnt := range seen {
		if cnt > 1 {
			t.Errorf("variable %s bound %d times after Normalize: %s", v, cnt, Print(n))
		}
	}
	if len(seen) != 2 {
		t.Errorf("want 2 distinct loop vars, got %v", seen)
	}
}

func TestNormalizeFreshNamesFollowSteps(t *testing.T) {
	q := MustParse(`{ $b/year } { $b/title }`)
	got := Print(Normalize(q))
	want := `{ for $year in $b/year return { $year } } { for $title in $b/title return { $title } }`
	if got != want {
		t.Errorf("normalization = %s, want %s", got, want)
	}
}

// TestNormalizePreservesFreeVars: normalization must not change the free
// variables of a query (property test over random queries).
func TestNormalizePreservesFreeVars(t *testing.T) {
	gen := newQueryGen()
	f := func(seed uint32) bool {
		q := gen.query(seed)
		before := strings.Join(FreeVars(q), ",")
		n := Normalize(q)
		after := strings.Join(FreeVars(n), ",")
		if !IsNormalForm(n) {
			t.Logf("not normal form: %s", Print(n))
			return false
		}
		if before != after {
			t.Logf("free vars changed: %q -> %q for %s", before, after, Print(q))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// queryGen builds small random XQuery⁻ queries from a seed.
type queryGen struct{}

func newQueryGen() *queryGen { return &queryGen{} }

func (g *queryGen) query(seed uint32) Expr {
	s := seed
	next := func(n uint32) uint32 {
		s = s*1664525 + 1013904223
		return (s >> 16) % n
	}
	steps := []string{"a", "b", "c"}
	var build func(depth int, vars []string) Expr
	build = func(depth int, vars []string) Expr {
		if depth == 0 {
			return &Str{S: "leaf"}
		}
		switch next(6) {
		case 0:
			return &Str{S: "s" + steps[next(3)]}
		case 1:
			return &VarOut{Var: vars[next(uint32(len(vars)))]}
		case 2:
			p := Path{steps[next(3)]}
			if next(2) == 0 {
				p = append(p, steps[next(3)])
			}
			return &PathOut{Var: vars[next(uint32(len(vars)))], Path: p}
		case 3:
			v := "$v" // deliberately reused to exercise uniquify
			var where Cond
			if next(2) == 0 {
				where = &Cmp{L: PathOp(vars[next(uint32(len(vars)))], Path{steps[next(3)]}),
					R: ConstOp("1"), Op: OpEq}
			}
			return &For{Var: v, Src: vars[next(uint32(len(vars)))],
				Path: Path{steps[next(3)]}, Where: where,
				Body: build(depth-1, append(vars, v))}
		case 4:
			return &If{Cond: &Exists{Var: vars[next(uint32(len(vars)))], Path: Path{steps[next(3)]}},
				Then: build(depth-1, vars)}
		default:
			return NewSeq(build(depth-1, vars), build(depth-1, vars))
		}
	}
	return build(3, []string{RootVar})
}

// --- MergeLoops tests ---------------------------------------------------

const pubDTD = `
<!ELEMENT bib (book)*>
<!ELEMENT book (title,publisher?)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT publisher (name,address)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT address (#PCDATA)>
`

// TestMergeSiblingLoops reproduces the Section 7 example: two normalized
// loops over the singleton publisher merge into one.
func TestMergeSiblingLoops(t *testing.T) {
	schema := dtd.MustParse(pubDTD)
	q := MustParse(`{ for $b in $ROOT/bib/book return {$b/publisher/name} {$b/publisher/address} }`)
	n := Normalize(q)
	merged := MergeLoops(n, schema)
	count := 0
	Walk(merged, func(e Expr) {
		if f, ok := e.(*For); ok && len(f.Path) == 1 && f.Path[0] == "publisher" {
			count++
		}
	})
	if count != 1 {
		t.Errorf("publisher loops after merge = %d, want 1:\n%s", count, Print(merged))
	}
	if !IsNormalForm(merged) {
		t.Errorf("merge broke normal form: %s", Print(merged))
	}
}

func TestMergeDoesNotFuseRepeatable(t *testing.T) {
	schema := dtd.MustParse(`
<!ELEMENT bib (book)*>
<!ELEMENT book (title*)>
<!ELEMENT title (#PCDATA)>
`)
	q := MustParse(`{ for $b in $ROOT/bib/book return {$b/title} {$b/title} }`)
	merged := MergeLoops(Normalize(q), schema)
	count := 0
	Walk(merged, func(e Expr) {
		if f, ok := e.(*For); ok && f.Path[0] == "title" {
			count++
		}
	})
	if count != 2 {
		t.Errorf("title loops = %d, want 2 (title is repeatable):\n%s", count, Print(merged))
	}
}

// TestMergeDocumentElementAcrossItems: the document element r occurs
// exactly once, so two loops over it merge even with a string between
// them, which moves into the merged body, and a condition moved with it
// re-binds to the merged loop's variable. hdr occurs exactly once under
// r but is not the document element: its loops, separated by output,
// stay two.
func TestMergeDocumentElementAcrossItems(t *testing.T) {
	schema := dtd.MustParse(`
<!ELEMENT r (hdr,grp*)>
<!ELEMENT hdr (k,v)>
<!ELEMENT grp (k,v?)>
<!ELEMENT k (#PCDATA)>
<!ELEMENT v (#PCDATA)>
`)
	cases := []struct{ in, want string }{
		{`{ for $a in $ROOT/r return {$a/hdr} } s { for $b in $ROOT/r return {$b/grp} }`,
			`{ for $a in $ROOT/r return { for $hdr in $a/hdr return { $hdr } } s { for $grp in $a/grp return { $grp } } }`},
		{`{ $ROOT/r/hdr } s { if exists $ROOT/r/grp then t } { $ROOT/r/grp }`,
			`{ for $r in $ROOT/r return { for $hdr in $r/hdr return { $hdr } } s { if exists $r/grp then t } { for $grp in $r/grp return { $grp } } }`},
		{`{ for $r in $ROOT/r return { for $h in $r/hdr return {$h/k} } s { for $h2 in $r/hdr return {$h2/v} } }`,
			`{ for $r in $ROOT/r return { for $h in $r/hdr return { for $k in $h/k return { $k } } } s { for $h2 in $r/hdr return { for $v in $h2/v return { $v } } } }`},
	}
	for _, c := range cases {
		if got := Print(MergeLoops(Normalize(MustParse(c.in)), schema)); got != c.want {
			t.Errorf("MergeLoops(%s)\n got %s\nwant %s", c.in, got, c.want)
		}
	}
}

// TestRebindNestedAbsolutePath is the XMark Q8 pattern: an absolute path
// re-opened inside an inner scope collapses onto the enclosing singleton
// binding.
func TestRebindNestedAbsolutePath(t *testing.T) {
	schema := dtd.MustParse(`
<!ELEMENT site (people,closed_auctions)>
<!ELEMENT people (person)*>
<!ELEMENT person (#PCDATA)>
<!ELEMENT closed_auctions (closed_auction)*>
<!ELEMENT closed_auction (#PCDATA)>
`)
	q := MustParse(`{ for $p in /site/people/person return
		{ for $t in /site/closed_auctions/closed_auction return {$t} } }`)
	merged := MergeLoops(Normalize(q), schema)
	// After re-binding there must be exactly one loop over the site step.
	siteLoops := 0
	Walk(merged, func(e Expr) {
		if f, ok := e.(*For); ok && f.Path[0] == "site" {
			siteLoops++
		}
	})
	if siteLoops != 1 {
		t.Errorf("site loops = %d, want 1:\n%s", siteLoops, Print(merged))
	}
	// And the closed_auctions loop must now hang off the outer site var.
	var siteVar, caSrc string
	Walk(merged, func(e Expr) {
		if f, ok := e.(*For); ok {
			switch f.Path[0] {
			case "site":
				siteVar = f.Var
			case "closed_auctions":
				caSrc = f.Src
			}
		}
	})
	if caSrc == "" || caSrc != siteVar {
		t.Errorf("closed_auctions loop src = %q, want site var %q:\n%s", caSrc, siteVar, Print(merged))
	}
}

func TestRebindRespectsCardinality(t *testing.T) {
	// With site repeatable, re-binding would change semantics; it must not
	// happen.
	schema := dtd.MustParse(`
<!ELEMENT top (site)*>
<!ELEMENT site (a,b)>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b (#PCDATA)>
`)
	q := MustParse(`{ for $s in $ROOT/top/site return { for $s2 in $ROOT/top/site return {$s2/a} } }`)
	merged := MergeLoops(Normalize(q), schema)
	siteLoops := 0
	Walk(merged, func(e Expr) {
		if f, ok := e.(*For); ok && f.Path[0] == "site" {
			siteLoops++
		}
	})
	if siteLoops != 2 {
		t.Errorf("site loops = %d, want 2 (site repeats under top):\n%s", siteLoops, Print(merged))
	}
}

// TestRebindConditionPaths: inside a loop over a singleton step, condition
// paths through that step re-bind to the loop variable, through every
// enclosing singleton loop; through a repeating step they stay.
func TestRebindConditionPaths(t *testing.T) {
	schema := dtd.MustParse(`
<!ELEMENT r (a,b*)>
<!ELEMENT a (d,e*)>
<!ELEMENT b (#PCDATA)>
<!ELEMENT d (#PCDATA)>
<!ELEMENT e (#PCDATA)>
`)
	cases := []struct{ in, want string }{
		{`{ for $v in $ROOT/r where $v/b != $ROOT/r/b return s }`,
			`{ for $v in $ROOT/r return { if $v/b != $v/b then s } }`},
		{`{ for $v in $ROOT/r/a return { if exists $ROOT/r/a/d and 2 * $ROOT/r/a/e = 1 then s } }`,
			`{ for $r in $ROOT/r return { for $v in $r/a return { if exists $v/d and 2 * $v/e = 1 then s } } }`},
		{`{ for $v in $ROOT/r/b return { if $ROOT/r/b = 1 then s } }`,
			`{ for $r in $ROOT/r return { for $v in $r/b return { if $r/b = 1 then s } } }`},
		{`{ for $v in $ROOT/r return { if $ROOT/r = 1 then s } }`,
			`{ for $v in $ROOT/r return { if $ROOT/r = 1 then s } }`},
	}
	for _, c := range cases {
		if got := Print(MergeLoops(Normalize(MustParse(c.in)), schema)); got != c.want {
			t.Errorf("MergeLoops(%s)\n got %s\nwant %s", c.in, got, c.want)
		}
	}
}
