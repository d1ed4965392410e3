package xmark

import (
	"io"
	"strings"
	"testing"

	"flux/internal/core"
	"flux/internal/dtd"
	"flux/internal/sax"
	"flux/internal/xq"
)

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

func TestDTDParses(t *testing.T) {
	schema, err := dtd.Parse(DTD)
	if err != nil {
		t.Fatalf("DTD does not parse: %v", err)
	}
	if schema.Root != "site" {
		t.Errorf("root = %q, want site", schema.Root)
	}
	// The order constraints the scheduler relies on.
	checks := []struct{ elem, first, then string }{
		{"site", "people", "open_auctions"},
		{"site", "people", "closed_auctions"},
		{"site", "open_auctions", "closed_auctions"},
		{"person", "person_id", "name"},
		{"item", "name", "description"},
	}
	for _, c := range checks {
		if !schema.Ord(c.elem, c.first, c.then) {
			t.Errorf("Ord_%s(%s, %s) = false, want true", c.elem, c.first, c.then)
		}
	}
	// Cardinality facts used by loop re-binding.
	for _, c := range [][2]string{
		{dtd.DocumentVar, "site"},
		{"site", "people"},
		{"site", "closed_auctions"},
		{"site", "open_auctions"},
		{"regions", "australia"},
	} {
		if !schema.AtMostOnce(c[0], c[1]) {
			t.Errorf("AtMostOnce(%s, %s) = false, want true", c[0], c[1])
		}
	}
}

func TestGenerateValidAndDeterministic(t *testing.T) {
	schema := dtd.MustParse(DTD)
	pr, pw := io.Pipe()
	go func() {
		_, err := Generate(pw, GenOptions{Scale: 0.003, Seed: 7})
		pw.CloseWithError(err)
	}()
	if err := dtd.Validate(schema, pr, sax.Options{}); err != nil {
		t.Fatalf("generated document is invalid: %v", err)
	}

	var a, b strings.Builder
	if _, err := Generate(&a, GenOptions{Scale: 0.002, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(&b, GenOptions{Scale: 0.002, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("generation is not deterministic for equal seeds")
	}
	var c strings.Builder
	if _, err := Generate(&c, GenOptions{Scale: 0.002, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	if a.String() == c.String() {
		t.Error("different seeds produced identical documents")
	}
}

// TestGenerateSizes checks ScaleForBytes: a requested size must come
// out within ±30%.
func TestGenerateSizes(t *testing.T) {
	for _, want := range []int64{256 << 10, 1 << 20} {
		var cw countWriter
		n, err := Generate(&cw, GenOptions{Scale: ScaleForBytes(want), Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(n) / float64(want)
		if ratio < 0.7 || ratio > 1.3 {
			t.Errorf("requested %d bytes, generated %d (ratio %.2f)", want, n, ratio)
		}
	}
}

// TestQueriesParseAndSchedule: all five benchmark queries must parse,
// normalize, and schedule into safe FluX queries under the XMark DTD.
func TestQueriesParseAndSchedule(t *testing.T) {
	schema := dtd.MustParse(DTD)
	for _, name := range QueryNames {
		q, err := xq.Parse(Queries[name])
		if err != nil {
			t.Errorf("%s: parse: %v", name, err)
			continue
		}
		f, err := core.Schedule(schema, q)
		if err != nil {
			t.Errorf("%s: schedule: %v", name, err)
			continue
		}
		if err := core.CheckSafety(schema, f); err != nil {
			t.Errorf("%s: unsafe: %v", name, err)
		}
	}
}

// scheduleGolden is the exact FluX print of each paper query's schedule.
// The benchmark and the Figure 4 memory column run these plans, so a
// scheduler change must leave them byte-identical or say why.
var scheduleGolden = map[string]string{
	// Q1 evaluates on the fly: names stream via an on handler.
	"q1": `{ ps $ROOT: on-first past() return <query1>; on site as $site return { ps $site: on people as $people return { ps $people: on person as $b return { ps $b: on-first past(person_id) return { if $b/person_id = 'person0' then <result> }; on name as $name return { if $b/person_id = 'person0' then { $name } }; on-first past(name,person_id) return { if $b/person_id = 'person0' then </result> } } } }; on-first past(site) return </query1> }`,
	// Q8 buffers people together with the closed auctions at the site
	// level: the join waits for past(closed_auctions,people).
	"q8": `{ ps $ROOT: on-first past() return <query8>; on site as $site return { ps $site: on-first past(closed_auctions,people) return { for $people in $site/people return { for $p in $people/person return <item>
  <person> { for $name in $p/name return { $name } } </person>
  <items_bought> { for $closed_auctions in $site/closed_auctions return { for $t in $closed_auctions/closed_auction return { if $t/buyer/buyer_person = $p/person_id then <result> } { if $t/buyer/buyer_person = $p/person_id then { $t } } { if $t/buyer/buyer_person = $p/person_id then </result> } } } </items_bought>
  </item> } } }; on-first past(site) return </query8> }`,
	// Q11 likewise waits for past(open_auctions,people).
	"q11": `{ ps $ROOT: on-first past() return <query11>; on site as $site return { ps $site: on-first past(open_auctions,people) return { for $people in $site/people return { for $p in $people/person return <items> { for $name in $p/name return { $name } } { for $open_auctions in $site/open_auctions return { for $o in $open_auctions/open_auction return { for $open_auction_id in $o/open_auction_id return { if $p/profile/profile_income > 5000 * $o/initial then { $open_auction_id } } } } } </items> } } }; on-first past(site) return </query11> }`,
	// Q13 evaluates on the fly: items stream via an on handler.
	"q13": `{ ps $ROOT: on-first past() return <query13>; on site as $site return { ps $site: on regions as $regions return { ps $regions: on australia as $australia return { ps $australia: on item as $i return { ps $i: on-first past() return <item>
  <name>; on name as $name return { $name }; on-first past(name) return </name>
  <desc>; on description as $description return { $description }; on-first past(description,name) return </desc>
  </item> } } } }; on-first past(site) return </query13> }`,
	// Q20 buffers a single person at a time via past(*) inside the person
	// scope.
	"q20": `{ ps $ROOT: on-first past() return <query20>; on site as $site return { ps $site: on people as $people return { ps $people: on person as $p return { ps $p: on-first past(*) return { if empty($p/person_income) then { $p } } } } }; on-first past(site) return </query20> }`,
}

// TestScheduleShapes checks the buffering structure the paper describes
// for each query (Section 6 discussion of Figure 4), by the exact print
// of its schedule.
func TestScheduleShapes(t *testing.T) {
	schema := dtd.MustParse(DTD)
	for name, want := range scheduleGolden {
		f, err := core.Schedule(schema, xq.MustParse(Queries[name]))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := core.Print(f); got != want {
			t.Errorf("%s schedule changed:\n got %s\nwant %s", name, got, want)
		}
	}
}
