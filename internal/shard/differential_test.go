package shard

// Router-layer differential test: with the hot document replicated on
// two shards, randomized queries through the fan-out path must agree
// byte-for-byte (and token-for-token, via the X-Flux-Tokens trailer)
// with a single-replica baseline tier — whichever replica happens to
// serve each request.

import (
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// diffCorpus gives the generator something to discriminate on: twelve
// books across four years with distinct titles, so a query routed to a
// stale or wrong copy changes result bytes.
var diffCorpus = map[string]string{
	"hotdoc": `<bib>` +
		`<book><title>FluX</title><year>2004</year></book>` +
		`<book><title>XMark</title><year>2002</year></book>` +
		`<book><title>Streams</title><year>2003</year></book>` +
		`<book><title>Galax</title><year>2004</year></book>` +
		`<book><title>AnonX</title><year>2001</year></book>` +
		`<book><title>Punct</title><year>2001</year></book>` +
		`<book><title>Tukwila</title><year>2002</year></book>` +
		`<book><title>Niagara</title><year>2003</year></book>` +
		`<book><title>Telegraph</title><year>2004</year></book>` +
		`<book><title>Eddies</title><year>2002</year></book>` +
		`<book><title>Yfilter</title><year>2003</year></book>` +
		`<book><title>Raindrop</title><year>2004</year></book>` +
		`</bib>`,
	"colddoc": `<bib><book><title>Idle</title><year>2000</year></book></bib>`,
}

// randomDiffQuery draws one query over the bib DTD: a for over
// /bib/book, an optional equality where on year or title, and one of
// four return shapes (whole element, title, year, title+year).
func randomDiffQuery(rng *rand.Rand) string {
	years := []string{"2001", "2002", "2003", "2004"}
	titles := []string{"FluX", "Streams", "Telegraph", "Nosuch"}
	where := ""
	switch rng.Intn(3) {
	case 0:
		where = fmt.Sprintf(" where $b/year = '%s'", years[rng.Intn(len(years))])
	case 1:
		where = fmt.Sprintf(" where $b/title = '%s'", titles[rng.Intn(len(titles))])
	}
	returns := []string{"{$b}", "{$b/title}", "{$b/year}", "{$b/title} {$b/year}"}
	ret := returns[rng.Intn(len(returns))]
	return fmt.Sprintf("<out> { for $b in /bib/book%s return %s } </out>", where, ret)
}

// TestRouterReplicaDifferential: 200 seeded random queries through a
// 2-shard tier with hotdoc replicated on both, fired in concurrent
// waves so the fan-out actually spreads them, each compared against a
// sequential single-shard baseline.
func TestRouterReplicaDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	queries := make([]string, 200)
	for i := range queries {
		queries[i] = randomDiffQuery(rng)
	}

	// Baseline: everything on one shard, no replication, no fan-out.
	_, _, baseTS := spawnTier(t, diffCorpus, 1, "")
	type answer struct{ body, tokens string }
	want := make([]answer, len(queries))
	for i, q := range queries {
		resp, body := post(t, baseTS.URL+"/query?doc=hotdoc", q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("baseline q%d: status %d: %s", i, resp.StatusCode, body)
		}
		want[i] = answer{body: body, tokens: resp.Trailer.Get("X-Flux-Tokens")}
		if want[i].tokens == "" {
			t.Fatalf("baseline q%d: no X-Flux-Tokens trailer", i)
		}
	}

	// Subject: hotdoc starts on shard 0 and is replicated onto shard 1
	// through the live AddReplica protocol (not a static map), so the
	// copy under test is the one the control plane would install.
	_, rt, ts := spawnTier(t, diffCorpus, 2, "hotdoc: 0\ncolddoc: 1\n")
	rep, err := rt.AddReplica(t.Context(), "hotdoc", 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Doc != "hotdoc" || rep.To != 1 {
		t.Fatalf("AddReplica report = %+v", rep)
	}

	var (
		mu     sync.Mutex
		shards = make(map[string]int)
	)
	const wave = 8
	for start := 0; start < len(queries); start += wave {
		end := start + wave
		if end > len(queries) {
			end = len(queries)
		}
		var wg sync.WaitGroup
		errs := make(chan error, wave)
		for i := start; i < end; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, body := post(t, ts.URL+"/query?doc=hotdoc", queries[i])
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("q%d: status %d: %s", i, resp.StatusCode, body)
					return
				}
				if body != want[i].body {
					errs <- fmt.Errorf("q%d %q: replicated tier diverged:\n got %q\nwant %q", i, queries[i], body, want[i].body)
					return
				}
				if got := resp.Trailer.Get("X-Flux-Tokens"); got != want[i].tokens {
					errs <- fmt.Errorf("q%d: X-Flux-Tokens = %q, want %q", i, got, want[i].tokens)
					return
				}
				mu.Lock()
				shards[resp.Header.Get("X-Flux-Shard")]++
				mu.Unlock()
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	// The comparison only means anything if both replicas actually
	// answered part of the load.
	if len(shards) < 2 || shards["0"] == 0 || shards["1"] == 0 {
		t.Fatalf("fan-out did not engage both replicas: per-shard counts %v", shards)
	}

	// The generator must have produced non-degenerate work: at least
	// one query with matches and a spread of distinct answers.
	distinct := make(map[string]bool)
	nonEmpty := 0
	for _, a := range want {
		distinct[a.body] = true
		if strings.Contains(a.body, "<book>") || strings.Contains(a.body, "<title>") || strings.Contains(a.body, "<year>") {
			nonEmpty++
		}
	}
	if len(distinct) < 5 || nonEmpty < 50 {
		t.Fatalf("degenerate query sample: %d distinct bodies, %d non-empty", len(distinct), nonEmpty)
	}
}
