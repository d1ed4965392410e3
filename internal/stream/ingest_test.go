package stream

import (
	"context"
	"io"
	"runtime"
	"testing"

	"flux"
	"flux/internal/mux"
)

// TestParallelChosenByScanKind: an ingest runs K = min(GOMAXPROCS, 16)
// sub-muxes, fanned out to their own goroutines only when K > 1, and
// places subscriptions by routing group — a signature joins the
// sub-mux that already holds it, a new one goes to the next sub-mux
// round-robin — and maps every activated slot back to its subscription.
func TestParallelChosenByScanKind(t *testing.T) {
	const dtdText = `
<!ELEMENT r (a*,b*,c*)>
<!ELEMENT a (x,y)>
<!ELEMENT b (x)>
<!ELEMENT c (#PCDATA)>
<!ELEMENT x (#PCDATA)>
<!ELEMENT y (#PCDATA)>
`
	// Four signatures; the second a-query repeats the first's.
	queries := []string{
		`{ for $a in /r/a return {$a} }`,
		`{ for $b in /r/b return {$b} }`,
		`<w> { for $a in /r/a return {$a} } </w>`,
		`{ for $c in /r/c return {$c} }`,
		`{ for $r in /r return {$r} }`,
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3, 20} {
		runtime.GOMAXPROCS(procs)
		cat := flux.NewCatalog(flux.CatalogOptions{})
		if err := cat.AddStream("live", dtdText); err != nil {
			t.Fatal(err)
		}
		hub := NewHub(cat, Options{})
		var subs []*Subscription
		for _, q := range queries {
			sub, err := hub.Subscribe(context.Background(), "live", q, io.Discard, PolicyBlock)
			if err != nil {
				t.Fatal(err)
			}
			subs = append(subs, sub)
		}
		ing, err := hub.StartIngest(context.Background(), "live")
		if err != nil {
			t.Fatal(err)
		}
		k := min(procs, 16)
		if len(ing.muxes) != k || (ing.fan != nil) != (k > 1) {
			t.Fatalf("GOMAXPROCS=%d: %d sub-muxes, fanout %v; want %d, fanout only above one",
				procs, len(ing.muxes), ing.fan != nil, k)
		}
		key := func(sub *Subscription) string { return mux.GroupKey(sub.query.Plan()) }
		if key(subs[0]) != key(subs[2]) {
			t.Fatal("the two a-queries must share a routing group")
		}
		// Distinct keys in subscription order: 0, 1, (0's again), 2, 3.
		for i, want := range []int{0, 1, 0, 2, 3} {
			if got := ing.place[key(subs[i])]; got != want%k {
				t.Errorf("GOMAXPROCS=%d: query %d on sub-mux %d, want %d", procs, i, got, want%k)
			}
		}
		if _, err := ing.Write([]byte(`<r><a><x>1</x><y>2</y></a><b><x>3</x></b><c>4</c></r>`)); err != nil {
			t.Fatal(err)
		}
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
		if len(ing.subs) != len(subs) {
			t.Fatalf("GOMAXPROCS=%d: %d activated slots, want %d", procs, len(ing.subs), len(subs))
		}
		for ref, sub := range ing.subs {
			if ref.mux != ing.place[key(sub)] {
				t.Errorf("GOMAXPROCS=%d: slot on sub-mux %d for a group placed on %d", procs, ref.mux, ing.place[key(sub)])
			}
		}
		for i, sub := range subs {
			<-sub.Done()
			if err := sub.Err(); err != nil {
				t.Fatalf("GOMAXPROCS=%d: query %d: %v", procs, i, err)
			}
		}
		hub.Close()
	}
}
