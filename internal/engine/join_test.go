package engine

import (
	"io"
	"strings"
	"testing"

	"flux/internal/dom"
)

// Join loops against the naive DOM oracle: the index must select
// exactly what the nested loop would, in the same order.

const joinDTD = `
<!ELEMENT db (person*,auction*)>
<!ELEMENT person (id*,income?)>
<!ELEMENT auction (buyer*,price?)>
<!ELEMENT id (#PCDATA)>
<!ELEMENT income (#PCDATA)>
<!ELEMENT buyer (#PCDATA)>
<!ELEMENT price (#PCDATA)>
`

const (
	equiJoinQ = `<r>{ for $p in $ROOT/db/person return <p>{ for $a in $ROOT/db/auction
	  where $a/buyer = $p/id return {$a/price} }</p> }</r>`
	thresholdJoinQ = `<r>{ for $p in $ROOT/db/person return <p>{ for $a in $ROOT/db/auction
	  where $p/income > (2 * $a/price) return {$a/price} }</p> }</r>`
)

func person(income string, ids ...string) string {
	var b strings.Builder
	b.WriteString("<person>")
	for _, id := range ids {
		b.WriteString("<id>" + id + "</id>")
	}
	if income != "" {
		b.WriteString("<income>" + income + "</income>")
	}
	return b.String() + "</person>"
}

func auction(price string, buyers ...string) string {
	var b strings.Builder
	b.WriteString("<auction>")
	for _, by := range buyers {
		b.WriteString("<buyer>" + by + "</buyer>")
	}
	if price != "" {
		b.WriteString("<price>" + price + "</price>")
	}
	return b.String() + "</auction>"
}

func joinDoc(parts ...string) string { return "<db>" + strings.Join(parts, "") + "</db>" }

// runJoinBoth runs the query on both engines and checks the plan indexes
// (or deliberately does not index) its join loop, returning the output.
func runJoinBoth(t *testing.T, query, strategy, doc string) string {
	t.Helper()
	_, plan := compilePlan(t, joinDTD, query)
	if desc := plan.Describe(); !strings.Contains(desc, ": "+strategy+"\n") {
		t.Fatalf("plan does not use a %s join:\n%s", strategy, desc)
	}
	runBoth(t, joinDTD, query, doc)
	var out strings.Builder
	if _, err := Run(plan, strings.NewReader(doc), &out, saxOpt); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestJoinDescribe(t *testing.T) {
	for _, c := range []struct{ query, want string }{
		{equiJoinQ, "join $a/buyer = $p/id: hash"},
		{thresholdJoinQ, "join $p/income > (2 * $a/price): sorted"},
		{strings.Replace(equiJoinQ, "=", "!=", 1), "join $a/buyer != $p/id: nested loop"},
	} {
		_, plan := compilePlan(t, joinDTD, c.query)
		if desc := plan.Describe(); !strings.Contains(desc, c.want) {
			t.Errorf("plan lacks %q:\n%s", c.want, desc)
		}
	}
}

// An inner item with two matching keys is emitted once, whether the keys
// collide in one chain (7 and 7.0) or the probe has two values hitting
// two chains.
func TestJoinMultiKeyMatchEmittedOnce(t *testing.T) {
	doc := joinDoc(
		person("", "7"),
		person("", "a", "b"),
		auction("1", "7", "7.0"),
		auction("2", "b", "a"),
		auction("3", "a", "c", "a"),
	)
	got := runJoinBoth(t, equiJoinQ, "hash", doc)
	want := "<r><p><price>1</price></p><p><price>2</price><price>3</price></p></r>"
	if got != want {
		t.Errorf("got %s, want %s", got, want)
	}
}

// Items sharing a key come out in document order, interleaved with
// items of other keys exactly as the nested loop visits them.
func TestJoinDuplicateKeysKeepDocumentOrder(t *testing.T) {
	doc := joinDoc(
		person("", "k"),
		person("", "j"),
		auction("1", "k"), auction("2", "j"), auction("3", "k"),
		auction("4", "k"), auction("5", "j"), auction("6", "k"),
	)
	got := runJoinBoth(t, equiJoinQ, "hash", doc)
	want := "<r><p><price>1</price><price>3</price><price>4</price><price>6</price></p>" +
		"<p><price>2</price><price>5</price></p></r>"
	if got != want {
		t.Errorf("got %s, want %s", got, want)
	}
}

// Numbers compare by value, everything else by string: 7 = 7.0 = 07 and
// 0 = -0, while 7 never equals x and NaN equals nothing.
func TestJoinNumericVsStringKeys(t *testing.T) {
	doc := joinDoc(
		person("", "7"), person("", "x"), person("", "-0"), person("", "NaN"), person("", "7 "),
		auction("1", "7.0"), auction("2", "x"), auction("3", "07"),
		auction("4", "0"), auction("5", "NaN"), auction("6", "X"),
	)
	got := runJoinBoth(t, equiJoinQ, "hash", doc)
	want := "<r><p><price>1</price><price>3</price></p><p><price>2</price></p>" +
		"<p><price>4</price></p><p></p><p><price>1</price><price>3</price></p></r>"
	if got != want {
		t.Errorf("got %s, want %s", got, want)
	}
}

func TestJoinThresholdByValue(t *testing.T) {
	doc := joinDoc(
		person("10", "p"), person("4.5"), person("-1"), person("1e3"),
		auction("5"), auction("1"), auction("2"), auction("abc"), auction("2.25"), auction(""),
	)
	// A non-numeric price is dropped by the scaled operand, so the inner
	// keys stay numeric and the sorted index serves every probe.
	runJoinBoth(t, thresholdJoinQ, "sorted", doc)
	for _, op := range []string{"<", "<=", ">=", ">"} {
		q := strings.Replace(thresholdJoinQ, "$p/income >", "$p/income "+op, 1)
		runJoinBoth(t, q, "sorted", doc)
		// Flipped orientation: the loop variable on the left.
		q = strings.Replace(q, "$p/income "+op+" (2 * $a/price)", "2 * $a/price "+op+" $p/income", 1)
		runJoinBoth(t, q, "sorted", doc)
	}
}

// A threshold join falls back to the full loop when a probe value or an
// inner key is not a number: string order then decides, which no numeric
// index can answer.
func TestJoinThresholdFallback(t *testing.T) {
	unscaled := `<r>{ for $p in $ROOT/db/person return <p>{ for $a in $ROOT/db/auction
	  where $a/price < $p/income return {$a/price} }</p> }</r>`
	docs := map[string]string{
		"non-numeric probe":     joinDoc(person("m"), person("5"), auction("1"), auction("30"), auction("3")),
		"non-numeric inner key": joinDoc(person("m"), person("5"), auction("3"), auction("abc"), auction("10")),
	}
	for name, doc := range docs {
		runJoinBoth(t, unscaled, "sorted", doc)

		_, plan := compilePlan(t, joinDTD, unscaled)
		loop := findJoinLoop(plan.root)
		db, err := dom.BuildString(doc, saxOpt)
		if err != nil {
			t.Fatal(err)
		}
		e := newEngine(plan, io.Discard)
		ix := e.joinIndexFor(loop, db)
		if len(ix.items) != 3 {
			t.Fatalf("%s: index over %d items, want 3", name, len(ix.items))
		}
		probeM, _ := makeCmpVal("m", 0)
		probe5, _ := makeCmpVal("5", 0)
		_, allM := ix.candidates([]cmpVal{probeM})
		_, all5 := ix.candidates([]cmpVal{probe5})
		e.release()
		if !allM {
			t.Errorf("%s: a non-numeric probe did not take the full loop", name)
		}
		if wantFull := name == "non-numeric inner key"; all5 != wantFull {
			t.Errorf("%s: numeric probe full loop = %v, want %v", name, all5, wantFull)
		}
	}
}

func TestJoinEmptySides(t *testing.T) {
	for name, doc := range map[string]string{
		"no persons":        joinDoc(auction("1", "7")),
		"no auctions":       joinDoc(person("", "7")),
		"nothing":           joinDoc(),
		"probe has no keys": joinDoc(person(""), auction("1", "7")),
		"items have no key": joinDoc(person("", "7"), auction("1"), auction("2")),
	} {
		t.Run(name, func(t *testing.T) {
			runJoinBoth(t, equiJoinQ, "hash", doc)
			runJoinBoth(t, thresholdJoinQ, "sorted", doc)
		})
	}
}

// A guard under or/not, or with !=, keeps the nested loop: the index
// could drop items the guard accepts.
func TestJoinGuardUnderOrNotKeepsNestedLoop(t *testing.T) {
	doc := joinDoc(
		person("", "7"), person("", "x"),
		auction("1", "7"), auction("2", "x"), auction("7", "y"), auction("4"),
	)
	for _, where := range []string{
		`$a/buyer = $p/id or $a/price = '7'`,
		`not($a/buyer = $p/id)`,
		`$a/buyer != $p/id`,
	} {
		q := strings.Replace(equiJoinQ, `$a/buyer = $p/id`, where, 1)
		runJoinBoth(t, q, "nested loop", doc)
	}
	// An and-conjunct keys the index; the other conjunct still filters.
	q := strings.Replace(equiJoinQ, `$a/buyer = $p/id`, `$a/price != '2' and $a/buyer = $p/id`, 1)
	runJoinBoth(t, q, "hash", doc)
	// An output outside the guard keeps the nested loop.
	q = `<r>{ for $p in $ROOT/db/person return <p>{ for $a in $ROOT/db/auction return
	  <a/> { if $a/buyer = $p/id then {$a/price} } }</p> }</r>`
	runJoinBoth(t, q, "nested loop", doc)
}

// The same join loop in two firings of a repeated scope builds two
// indexes: the second firing's items and keys are not the first's.
func TestJoinIndexPerScopeFiring(t *testing.T) {
	const shopDTD = `
<!ELEMENT shops (shop*)>
<!ELEMENT shop (person*,auction*)>
<!ELEMENT person (id*,income?)>
<!ELEMENT auction (buyer*,price?)>
<!ELEMENT id (#PCDATA)>
<!ELEMENT income (#PCDATA)>
<!ELEMENT buyer (#PCDATA)>
<!ELEMENT price (#PCDATA)>
`
	q := `<r>{ for $s in $ROOT/shops/shop return <s>{ for $p in $s/person return <p>{ for $a in $s/auction
	  where $a/buyer = $p/id return {$a/price} }</p> }</s> }</r>`
	_, plan := compilePlan(t, shopDTD, q)
	if desc := plan.Describe(); !strings.Contains(desc, "join $a/buyer = $p/id: hash") {
		t.Fatalf("plan does not index the join:\n%s", desc)
	}
	doc := "<shops><shop>" + person("", "7") + auction("1", "7") + auction("2", "8") + "</shop>" +
		"<shop>" + person("", "7") + person("", "8") + auction("3", "8") + auction("4", "7") + "</shop></shops>"
	runBoth(t, shopDTD, q, doc)
}

// findJoinLoop returns the first indexed join loop of the plan.
func findJoinLoop(s *scopeSpec) *execProg {
	var walk func(p *execProg) *execProg
	walk = func(p *execProg) *execProg {
		switch p.kind {
		case eSeq:
			for _, it := range p.items {
				if l := walk(it); l != nil {
					return l
				}
			}
		case eFor:
			if p.join != nil && p.join.strategy != joinNested {
				return p
			}
			return walk(p.body)
		case eIf:
			return walk(p.then)
		}
		return nil
	}
	for _, h := range s.handlers {
		if h.body != nil {
			if l := walk(h.body); l != nil {
				return l
			}
		}
		if h.child != nil {
			if l := findJoinLoop(h.child); l != nil {
				return l
			}
		}
	}
	return nil
}
