package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"flux"
)

const testDTD = `
<!ELEMENT bib (book*)>
<!ELEMENT book (title,year)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT year (#PCDATA)>
`

// testDocs are three distinct documents, so routing mistakes change
// result bytes.
var testDocs = map[string]string{
	"alpha": `<bib><book><title>FluX</title><year>2004</year></book>` +
		`<book><title>XMark</title><year>2002</year></book></bib>`,
	"beta": `<bib><book><title>Streams</title><year>2003</year></book></bib>`,
	"gamma": `<bib><book><title>Galax</title><year>2004</year></book>` +
		`<book><title>AnonX</title><year>2004</year></book>` +
		`<book><title>Punct</title><year>2001</year></book></bib>`,
}

var testQueries = []string{
	`<out> { for $b in /bib/book return {$b/title} } </out>`,
	`<out> { for $b in /bib/book where $b/year = '2004' return {$b} } </out>`,
}

// writeCorpus writes a docroot of <name>.xml/<name>.dtd pairs and
// returns its specs.
func writeCorpus(t *testing.T, docs map[string]string) []DocSpec {
	t.Helper()
	dir := t.TempDir()
	for name, content := range docs {
		if err := os.WriteFile(filepath.Join(dir, name+".xml"), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name+".dtd"), []byte(testDTD), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	specs, err := ScanDocroot(dir)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// spawnTier builds an embedded tier: n shards over the corpus (with
// optional placement overrides) fronted by a router on an httptest
// server. Cleanup tears everything down.
func spawnTier(t *testing.T, docs map[string]string, n int, overrides string) ([]*EmbeddedShard, *Router, *httptest.Server) {
	t.Helper()
	specs := writeCorpus(t, docs)
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.Name
	}
	m, err := NewMap(names, n)
	if err != nil {
		t.Fatal(err)
	}
	if overrides != "" {
		if err := m.ApplyOverrides(overrides); err != nil {
			t.Fatal(err)
		}
	}
	shards, err := SpawnEmbedded(m, specs, EmbeddedOptions{
		Executor: flux.ExecutorOptions{Window: time.Millisecond, MaxBatch: 16},
		Admin:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(RouterOptions{Map: m, Shards: Addrs(shards), HealthInterval: 20 * time.Millisecond, Admin: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt)
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
		for _, s := range shards {
			s.Close()
		}
	})
	return shards, rt, ts
}

func post(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

// TestRouterMatchesSingleNode is the tier's correctness contract: every
// (document, query) pair answered through the router over 2 embedded
// shards is byte-identical to the same request against a single-node
// worker serving the whole corpus, stats trailers included, and the
// X-Flux-Shard header names the owning shard.
func TestRouterMatchesSingleNode(t *testing.T) {
	// The single-node reference: one shard holding every document,
	// queried directly — exactly fluxd's surface.
	singleShards, _, singleTS := spawnTier(t, testDocs, 1, "")
	_ = singleShards
	_, rt, ts := spawnTier(t, testDocs, 2, "")

	for doc := range testDocs {
		for qi, q := range testQueries {
			wantResp, wantBody := post(t, singleTS.URL+"/query?doc="+doc, q)
			gotResp, gotBody := post(t, ts.URL+"/query?doc="+doc, q)
			if wantResp.StatusCode != http.StatusOK || gotResp.StatusCode != http.StatusOK {
				t.Fatalf("%s q%d: status single %d router %d", doc, qi, wantResp.StatusCode, gotResp.StatusCode)
			}
			if gotBody != wantBody {
				t.Errorf("%s q%d: router body %q, single-node %q", doc, qi, gotBody, wantBody)
			}
			for _, tr := range []string{"X-Flux-Peak-Buffer-Bytes", "X-Flux-Tokens", "X-Flux-Batch-Size"} {
				if gotResp.Trailer.Get(tr) == "" {
					t.Errorf("%s q%d: trailer %s missing through the router", doc, qi, tr)
				}
			}
			owner := rt.Topology().View().Owners(doc)[0]
			if got := gotResp.Header.Get("X-Flux-Shard"); got != strconv.Itoa(owner) {
				t.Errorf("%s q%d: X-Flux-Shard = %q, want %d", doc, qi, got, owner)
			}
		}
	}

	// /docs through the router lists the whole corpus.
	resp, body := func() (*http.Response, string) {
		r, err := http.Get(ts.URL + "/docs")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		return r, string(b)
	}()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/docs status %d", resp.StatusCode)
	}
	var infos []flux.DocInfo
	if err := json.Unmarshal([]byte(body), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(testDocs) {
		t.Fatalf("/docs = %+v, want %d documents", infos, len(testDocs))
	}
	for i := 1; i < len(infos); i++ {
		if infos[i-1].Name >= infos[i].Name {
			t.Fatalf("/docs not sorted: %+v", infos)
		}
	}

	// Error surface matches fluxd: unknown doc 404, GET 405, bad query 400.
	if resp, _ := post(t, ts.URL+"/query?doc=nope", testQueries[0]); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown doc: status %d, want 404", resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/query?doc=alpha"); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /query: status %d, want 405", resp.StatusCode)
		}
	}
	if resp, _ := post(t, ts.URL+"/query?doc=alpha", `<out> { for in } </out>`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad query: status %d, want 400", resp.StatusCode)
	}
}

// TestRouterMergedStats is the rollup arithmetic contract from the
// acceptance criteria: after a spread of queries, the router's /stats
// rollup equals the sum of the per-shard sections in the same payload —
// per-document counters, cache counters and admission counters.
func TestRouterMergedStats(t *testing.T) {
	_, _, ts := spawnTier(t, testDocs, 2, "")
	for doc := range testDocs {
		for _, q := range testQueries {
			if resp, body := post(t, ts.URL+"/query?doc="+doc, q); resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %s", doc, resp.StatusCode, body)
			}
		}
		// Repeat one query for cache hits.
		if resp, _ := post(t, ts.URL+"/query?doc="+doc, testQueries[0]); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s repeat failed", doc)
		}
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %v %v", resp, err)
	}
	var merged MergedStats
	err = json.NewDecoder(resp.Body).Decode(&merged)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Missing) != 0 {
		t.Fatalf("missing = %v with all shards up", merged.Missing)
	}
	if len(merged.PerShard) != 2 {
		t.Fatalf("per_shard has %d entries, want 2", len(merged.PerShard))
	}

	// Recompute the rollup by hand from the per-shard sections.
	sum := flux.ServerStats{Docs: make(map[string]flux.DocStats)}
	for _, st := range merged.PerShard {
		for doc, d := range st.Docs {
			sum.Docs[doc] = addDocStats(sum.Docs[doc], d)
		}
		sum.Cache.Hits += st.Cache.Hits
		sum.Cache.Misses += st.Cache.Misses
		sum.Cache.Size += st.Cache.Size
		sum.Admission.Admitted += st.Admission.Admitted
		sum.Admission.Queued += st.Admission.Queued
	}
	for doc := range testDocs {
		got, want := merged.Rollup.Docs[doc], sum.Docs[doc]
		if got != want {
			t.Errorf("rollup.docs.%s = %+v, want per-shard sum %+v", doc, got, want)
		}
		if want.Queries != int64(len(testQueries))+1 {
			t.Errorf("%s served %d queries, want %d", doc, want.Queries, len(testQueries)+1)
		}
	}
	if merged.Rollup.Cache.Hits != sum.Cache.Hits || merged.Rollup.Cache.Misses != sum.Cache.Misses ||
		merged.Rollup.Cache.Size != sum.Cache.Size {
		t.Errorf("rollup.cache = %+v, want sums %+v", merged.Rollup.Cache, sum.Cache)
	}
	if merged.Rollup.Cache.Hits == 0 {
		t.Error("expected cache hits from the repeated query")
	}
	if merged.Rollup.Admission.Admitted != sum.Admission.Admitted || merged.Rollup.Admission.Admitted == 0 {
		t.Errorf("rollup.admission.admitted = %d, want non-zero sum %d", merged.Rollup.Admission.Admitted, sum.Admission.Admitted)
	}
	if merged.Rollup.Admission.Queued != sum.Admission.Queued {
		t.Errorf("rollup.admission.queued = %d, want sum %d", merged.Rollup.Admission.Queued, sum.Admission.Queued)
	}
}

// TestRouterReplicaFailover: a document replicated on both shards
// survives one shard dying — the router marks the dead worker on the
// failed attempt and retries the read on the surviving replica.
func TestRouterReplicaFailover(t *testing.T) {
	shards, rt, ts := spawnTier(t, testDocs, 2, "alpha: 0,1\n")
	if resp, _ := post(t, ts.URL+"/query?doc=alpha", testQueries[0]); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-kill query failed: %d", resp.StatusCode)
	}
	shards[0].Close()

	// Every post-kill query must succeed on the survivor, including the
	// very first one (mark-dead-and-retry, not wait-for-health-probe).
	for i := 0; i < 3; i++ {
		resp, body := post(t, ts.URL+"/query?doc=alpha", testQueries[0])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d after kill: status %d: %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Flux-Shard"); got != "1" {
			t.Fatalf("query %d after kill served by shard %q, want 1", i, got)
		}
	}

	// The topology view flags the dead shard.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/admin/shards")
		if err != nil {
			t.Fatal(err)
		}
		var topo TopologyStatus
		err = json.NewDecoder(resp.Body).Decode(&topo)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		status := topo.Shards
		if topo.Epoch < 1 {
			t.Fatalf("topology epoch = %d, want >= 1", topo.Epoch)
		}
		if len(status) == 2 && !status[0].Alive && status[0].LastError != "" && status[1].Alive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("topology never showed shard 0 dead: %+v", status)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Merged stats name the unreachable shard instead of undercounting
	// silently.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var merged MergedStats
	err = json.NewDecoder(resp.Body).Decode(&merged)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Missing) != 1 || merged.Missing[0] != "0" {
		t.Fatalf("missing = %v, want [0]", merged.Missing)
	}
	_ = rt
}

// TestRouterShardKillMidBatch: killing a shard while a query result is
// streaming through the router aborts the client connection mid-body —
// the truncation is visible at the transport, not silently passed off
// as a complete result — and the rest of the tier keeps serving.
func TestRouterShardKillMidBatch(t *testing.T) {
	// A document big enough that its result is still streaming when the
	// kill lands.
	var sb strings.Builder
	sb.WriteString("<bib>")
	for i := 0; i < 120000; i++ {
		fmt.Fprintf(&sb, "<book><title>vol %06d</title><year>2004</year></book>", i)
	}
	sb.WriteString("</bib>")
	docs := map[string]string{"big": sb.String(), "beta": testDocs["beta"]}

	shards, rt, ts := spawnTier(t, docs, 2, "big: 0\nbeta: 1\n")

	resp, err := http.Post(ts.URL+"/query?doc=big", "text/plain", strings.NewReader(testQueries[0]))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 4096)
	if _, err := io.ReadFull(resp.Body, buf); err != nil {
		t.Fatalf("never saw streaming output: %v", err)
	}
	shards[0].Close() // kill the serving shard mid-stream

	if _, err := io.Copy(io.Discard, resp.Body); err == nil {
		t.Fatal("client read the truncated result to EOF without an error")
	}

	// The tier is degraded, not down: the surviving shard's document
	// still serves, and the dead one's answers 502 once marked dead.
	if resp, body := post(t, ts.URL+"/query?doc=beta", testQueries[0]); resp.StatusCode != http.StatusOK {
		t.Fatalf("surviving shard's doc failed: %d %s", resp.StatusCode, body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := post(t, ts.URL+"/query?doc=big", testQueries[0])
		if resp.StatusCode == http.StatusBadGateway {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dead shard's doc never answered 502, last status %d", resp.StatusCode)
		}
		time.Sleep(20 * time.Millisecond)
	}
	_ = rt
}

// TestRouterConcurrentSpread: concurrent queries against every document
// all come back correct while spreading across both shards — the
// routing table holds up under the race detector.
func TestRouterConcurrentSpread(t *testing.T) {
	_, rt, ts := spawnTier(t, testDocs, 2, "")
	want := make(map[string]string)
	for doc := range testDocs {
		_, body := post(t, ts.URL+"/query?doc="+doc, testQueries[0])
		want[doc] = body
	}
	var wg sync.WaitGroup
	for doc := range testDocs {
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(doc string) {
				defer wg.Done()
				resp, body := post(t, ts.URL+"/query?doc="+doc, testQueries[0])
				if resp.StatusCode != http.StatusOK || body != want[doc] {
					t.Errorf("%s: status %d, body mismatch %v", doc, resp.StatusCode, body != want[doc])
				}
			}(doc)
		}
	}
	wg.Wait()
	_ = rt
}

// TestRouterDefaultDoc: with a single mapped document the ?doc=
// parameter is optional, mirroring fluxd.
func TestRouterDefaultDoc(t *testing.T) {
	_, _, ts := spawnTier(t, map[string]string{"alpha": testDocs["alpha"]}, 2, "")
	resp, body := post(t, ts.URL+"/query", testQueries[0])
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "FluX") {
		t.Fatalf("default doc: status %d body %q", resp.StatusCode, body)
	}
}

// TestClientAgainstWorker: the typed client round-trips a worker's
// identity, docs, stats and health.
func TestClientAgainstWorker(t *testing.T) {
	shards, _, _ := spawnTier(t, testDocs, 2, "")
	c := NewClient(shards[0].Addr+"/", nil) // trailing slash tolerated
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	id, err := c.Identity(ctx)
	if err != nil || id.ShardID != 0 || id.Advertise != shards[0].Addr {
		t.Fatalf("identity = %+v, err %v", id, err)
	}
	docs, err := c.Docs(ctx)
	if err != nil || len(docs) != len(shards[0].Worker().Catalog().Docs()) {
		t.Fatalf("docs = %+v, err %v", docs, err)
	}
	st, err := c.Stats(ctx)
	if err != nil || st.Docs == nil {
		t.Fatalf("stats = %+v, err %v", st, err)
	}
}
