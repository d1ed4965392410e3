package engine

import (
	"strings"
	"testing"
)

// These tests target the condition machinery: on-the-fly flags, numeric
// vs string comparison, Boolean combinations, scaled arithmetic, and
// watcher sharing.

const condDTD = `
<!ELEMENT list (entry)*>
<!ELEMENT entry (id,score,tag*,note?)>
<!ELEMENT id (#PCDATA)>
<!ELEMENT score (#PCDATA)>
<!ELEMENT tag (#PCDATA)>
<!ELEMENT note (#PCDATA)>
`

const condDoc = `<list>` +
	`<entry><id>e1</id><score>10</score><tag>red</tag><tag>blue</tag></entry>` +
	`<entry><id>e2</id><score>9</score><tag>red</tag><note>n</note></entry>` +
	`<entry><id>e3</id><score>100</score></entry>` +
	`<entry><id>e4</id><score>-5</score><note>x</note></entry>` +
	`</list>`

func TestNumericFlagComparison(t *testing.T) {
	// 9 < 10 numerically but "9" > "10" lexicographically; flags must
	// compare numerically when both sides are numbers.
	st := runBoth(t, condDTD,
		`{ for $e in /list/entry where $e/score >= 10 return { $e/id } }`, condDoc)
	if st.PeakBufferBytes == 0 {
		t.Error("id output waits for score; some buffering expected")
	}
}

func TestStringFlagComparison(t *testing.T) {
	runBoth(t, condDTD,
		`{ for $e in /list/entry where $e/tag = 'blue' return { $e/id } }`, condDoc)
}

func TestBooleanCombinations(t *testing.T) {
	queries := []string{
		`{ for $e in /list/entry where $e/tag = 'red' and $e/score > 5 return { $e/id } }`,
		`{ for $e in /list/entry where $e/tag = 'blue' or exists $e/note return { $e/id } }`,
		`{ for $e in /list/entry where not $e/tag = 'red' return { $e/id } }`,
		`{ for $e in /list/entry where not (exists $e/tag or exists $e/note) return { $e/id } }`,
		`{ for $e in /list/entry where true return { $e/id } }`,
		`{ for $e in /list/entry where $e/score != 9 and ($e/tag = 'red' or empty($e/note)) return { $e/id } }`,
	}
	for _, q := range queries {
		runBoth(t, condDTD, q, condDoc)
	}
}

func TestScaledComparisonFlag(t *testing.T) {
	// score > 2 * score is never true; score <= 2 * score holds for
	// positive scores. Exercises the arithmetic operand path.
	runBoth(t, condDTD,
		`{ for $e in /list/entry where $e/score > 100 return never }`, condDoc)
	d := `
<!ELEMENT site (person*,auction*)>
<!ELEMENT person (income)>
<!ELEMENT income (#PCDATA)>
<!ELEMENT auction (initial)>
<!ELEMENT initial (#PCDATA)>
`
	doc := `<site>` +
		`<person><income>60000</income></person>` +
		`<person><income>100</income></person>` +
		`<auction><initial>10</initial></auction>` +
		`<auction><initial>50000</initial></auction>` +
		`</site>`
	runBoth(t, d, `{ for $p in /site/person return
		{ for $o in /site/auction where $p/income > 5000 * $o/initial return <hit/> } }`, doc)
}

func TestNonNumericScaledOperandContributesNothing(t *testing.T) {
	d := `
<!ELEMENT r (a*,b*)>
<!ELEMENT a (v)>
<!ELEMENT v (#PCDATA)>
<!ELEMENT b (w)>
<!ELEMENT w (#PCDATA)>
`
	doc := `<r><a><v>100</v></a><b><w>oops</w></b><b><w>1</w></b></r>`
	// w = "oops" cannot be scaled; only w = 1 (scaled to 5) participates.
	runBoth(t, d, `{ for $a in /r/a return
		{ for $b in /r/b where $a/v > 5 * $b/w return <hit/> } }`, doc)
}

func TestWatcherSharingAcrossHandlers(t *testing.T) {
	// The same condition appears in several guarded strings; the plan must
	// hold exactly one watcher for it.
	schema, plan := compilePlan(t, condDTD,
		`{ for $e in /list/entry where $e/score > 5 return <a> { $e/tag } <b/> }`)
	_ = schema
	desc := plan.Describe()
	if n := strings.Count(desc, `score > "5"`); n != 1 {
		t.Errorf("watcher duplicated %d times:\n%s", n, desc)
	}
}

func TestEmptyElementContent(t *testing.T) {
	d := `
<!ELEMENT r (mark?,item*)>
<!ELEMENT mark EMPTY>
<!ELEMENT item (#PCDATA)>
`
	q := `{ for $i in /r/item return { if exists $ROOT/r/mark then { $i } } }`
	runBoth(t, d, q, `<r><mark/><item>1</item><item>2</item></r>`)
	runBoth(t, d, q, `<r><item>1</item></r>`)
}

func TestDeepWatcherPath(t *testing.T) {
	d := `
<!ELEMENT r (meta,row*)>
<!ELEMENT meta (info)>
<!ELEMENT info (lang)>
<!ELEMENT lang (#PCDATA)>
<!ELEMENT row (#PCDATA)>
`
	q := `{ for $x in /r/row return { if $ROOT/r/meta/info/lang = 'en' then { $x } } }`
	runBoth(t, d, q, `<r><meta><info><lang>en</lang></info></meta><row>1</row><row>2</row></r>`)
	runBoth(t, d, q, `<r><meta><info><lang>de</lang></info></meta><row>1</row></r>`)
}

func TestConditionOnMissingPath(t *testing.T) {
	// Paths that never match: comparisons are false, empty() is true.
	runBoth(t, condDTD,
		`{ for $e in /list/entry where $e/nothere = 'x' return no }`, condDoc)
	runBoth(t, condDTD,
		`{ for $e in /list/entry where empty($e/nothere) return { $e/id } }`, condDoc)
}

func TestWhereOnWholeEntryCopy(t *testing.T) {
	// Guarded whole-subtree copy with a condition mixing flags.
	runBoth(t, condDTD,
		`{ for $e in /list/entry where exists $e/note and $e/score < 0 return { $e } }`, condDoc)
}

// compilePlan prepares a plan without running it.
func compilePlan(t *testing.T, dtdText, query string) (string, *Plan) {
	t.Helper()
	schema := mustSchema(t, dtdText)
	f := mustSchedule(t, schema, query)
	plan, err := Compile(schema, f)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return dtdText, plan
}

// A simple handler's copy guard may compare paths of enclosing scopes;
// the buffer trees must hold those paths as they do for any condition
// an exec program reads.
func TestCopyGuardReadsBufferedPaths(t *testing.T) {
	const partDTD = `
<!ELEMENT part (pid,part*)>
<!ELEMENT pid (#PCDATA)>
`
	q := `<x>{ for $v1 in $ROOT/part/part/part return <o/>
	  { for $v2 in $ROOT/part where $v2/pid != (0.5 * $ROOT/part/pid) return { $v1 } } }</x>`
	for _, root := range []string{"4", "0"} {
		doc := `<part><pid>` + root + `</pid><part><pid>x</pid></part>` +
			`<part><pid>3.5</pid><part><pid>x</pid><part><pid>0</pid></part></part></part></part>`
		runBoth(t, partDTD, q, doc)
	}
}
