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

// TestScheduleShapes checks the buffering structure the paper describes
// for each query (Section 6 discussion of Figure 4).
func TestScheduleShapes(t *testing.T) {
	schema := dtd.MustParse(DTD)
	get := func(name string) string {
		f, err := core.Schedule(schema, xq.MustParse(Queries[name]))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return core.Print(f)
	}
	// Q1 and Q13 evaluate on the fly: names stream via on handlers.
	q1 := get("q1")
	if !strings.Contains(q1, "on name as") {
		t.Errorf("q1 must stream names:\n%s", q1)
	}
	// Q8 and Q11 must buffer people together with the auction side at the
	// site level (the join is delayed until both are past).
	q8 := get("q8")
	if !strings.Contains(q8, "on-first past(closed_auctions,people)") {
		t.Errorf("q8 must wait for past(closed_auctions,people):\n%s", q8)
	}
	q11 := get("q11")
	if !strings.Contains(q11, "on-first past(open_auctions,people)") {
		t.Errorf("q11 must wait for past(open_auctions,people):\n%s", q11)
	}
	q13 := get("q13")
	if !strings.Contains(q13, "on item as") {
		t.Errorf("q13 must stream items:\n%s", q13)
	}
	// Q20 buffers one person at a time via past(*) inside the person scope.
	q20 := get("q20")
	if !strings.Contains(q20, "on person as") || !strings.Contains(q20, "past(*)") {
		t.Errorf("q20 must buffer a single person at a time:\n%s", q20)
	}
}
