package flux_test

// TestWorkloadInvariants is the exact half of performance testing: one
// XMark document (seed 1, 1 MB) and one row per invariant that a faster
// or leaner change must keep. Timing is benchmark/'s business; nothing
// here reads a clock.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"flux"
	"flux/internal/engine"
	"flux/internal/holdtest"
	"flux/internal/sax"
	"flux/internal/shard"
	"flux/internal/stream"
	"flux/internal/xmark"
)

// workload is the document every row runs over, in memory and on disk.
type workload struct {
	doc     []byte
	docPath string
	dtdPath string
}

func TestWorkloadInvariants(t *testing.T) {
	var doc bytes.Buffer
	if _, err := xmark.Generate(&doc, xmark.GenOptions{Scale: xmark.ScaleForBytes(1 << 20), Seed: 1}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w := &workload{
		doc:     doc.Bytes(),
		docPath: filepath.Join(dir, "xmark.xml"),
		dtdPath: filepath.Join(dir, "xmark.dtd"),
	}
	if err := os.WriteFile(w.docPath, w.doc, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(w.dtdPath, []byte(xmark.DTD), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, row := range []struct {
		name  string
		check func(*testing.T, *workload)
	}{
		{"fig4-memory", checkFig4Memory},
		{"routing", checkRouting},
		{"sharding", checkSharding},
		{"migration", checkMigration},
		{"streaming", checkStreaming},
	} {
		t.Run(row.name, func(t *testing.T) { row.check(t, w) })
	}
}

// fig4PeakBufferBytes is the memory column of Figure 4 at 1 MB, seed 1:
// the buffer_bytes cells of BENCH_15.json. Buffering is deterministic,
// so any change to these numbers is a behaviour change, not noise.
var fig4PeakBufferBytes = map[string]map[flux.Engine]int64{
	"q1":  {flux.FluX: 0, flux.Projection: 37_124, flux.Naive: 1_042_637},
	"q8":  {flux.FluX: 139_492, flux.Projection: 139_492, flux.Naive: 1_042_637},
	"q11": {flux.FluX: 59_745, flux.Projection: 59_745, flux.Naive: 1_042_637},
	"q13": {flux.FluX: 0, flux.Projection: 62_679, flux.Naive: 1_042_637},
	"q20": {flux.FluX: 702, flux.Projection: 176_119, flux.Naive: 1_042_637},
}

// checkFig4Memory: every Figure 4 cell buffers exactly its recorded
// bytes, and the three engines agree byte for byte on every query.
func checkFig4Memory(t *testing.T, w *workload) {
	for _, qname := range xmark.QueryNames {
		q, err := flux.Prepare(xmark.Queries[qname], xmark.DTD)
		if err != nil {
			t.Fatalf("%s: %v", qname, err)
		}
		var want []byte
		for _, eng := range []flux.Engine{flux.FluX, flux.Naive, flux.Projection} {
			var out bytes.Buffer
			st, err := q.Run(bytes.NewReader(w.doc), &out, flux.Options{Engine: eng})
			if err != nil {
				t.Fatalf("%s %s: %v", qname, eng, err)
			}
			if wantPeak := fig4PeakBufferBytes[qname][eng]; st.PeakBufferBytes != wantPeak {
				t.Errorf("%s %s: PeakBufferBytes = %d, want %d", qname, eng, st.PeakBufferBytes, wantPeak)
			}
			if eng == flux.FluX {
				want = out.Bytes()
			} else if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("%s: %s output (%d bytes) differs from flux (%d bytes)", qname, eng, out.Len(), len(want))
			}
		}
	}
}

// checkRouting: the disjoint-path fan-out batch through one Executor
// batch, routed by the merged path automaton, returns what RunAll's
// shared scan returns and delivers exactly as many events, strictly
// fewer than the queries' unrouted runs (engine.Run, one session fed
// every event) process.
func checkRouting(t *testing.T, w *workload) {
	queries := xmark.FanoutQueries
	prepared := make([]*flux.Query, len(queries))
	outs := make([]bytes.Buffer, len(queries))
	ws := make([]io.Writer, len(queries))
	for i, text := range queries {
		q, err := flux.Prepare(text, xmark.DTD)
		if err != nil {
			t.Fatal(err)
		}
		prepared[i], ws[i] = q, &outs[i]
	}
	results, err := flux.RunAll(prepared, bytes.NewReader(w.doc), flux.Options{}, ws...)
	if err != nil {
		t.Fatal(err)
	}
	var runAllTokens, unroutedTokens int64
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("RunAll query %d: %v", i, r.Err)
		}
		runAllTokens += r.Stats.Tokens
		st, err := engine.Run(flux.QueryPlan(prepared[i]), bytes.NewReader(w.doc), io.Discard, sax.Options{SkipWhitespaceText: true})
		if err != nil {
			t.Fatalf("unrouted query %d: %v", i, err)
		}
		unroutedTokens += st.Tokens
	}

	cat := flux.NewCatalog(flux.CatalogOptions{})
	if err := cat.Add("doc", w.docPath, xmark.DTD); err != nil {
		t.Fatal(err)
	}
	// A window far longer than the test and every processor held: the
	// batch leaves on MaxBatch, so all queries share exactly one scan.
	ex, err := flux.NewExecutor(cat, flux.ExecutorOptions{Window: time.Minute, MaxBatch: len(queries)})
	if err != nil {
		t.Fatal(err)
	}
	release := holdtest.Hold(t, cat.Add, ex.ExecuteContext)
	exOuts := make([]bytes.Buffer, len(queries))
	exResults := make([]flux.ExecResult, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for i, text := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			exResults[i], errs[i] = ex.ExecuteContext(context.Background(), "doc", text, &exOuts[i])
		}()
	}
	wg.Wait()
	release()
	var exTokens int64
	for i := range queries {
		if errs[i] != nil {
			t.Fatalf("Executor query %d: %v", i, errs[i])
		}
		if n := exResults[i].BatchSize; n != len(queries) {
			t.Fatalf("Executor query %d ran in a batch of %d, want %d", i, n, len(queries))
		}
		if !bytes.Equal(exOuts[i].Bytes(), outs[i].Bytes()) {
			t.Errorf("query %d: Executor output (%d bytes) differs from RunAll (%d bytes)", i, exOuts[i].Len(), outs[i].Len())
		}
		exTokens += exResults[i].Stats.Tokens
	}
	if exTokens != runAllTokens || exTokens >= unroutedTokens {
		t.Errorf("Executor batch delivered %d events, RunAll %d, unrouted runs %d; automaton routing must deliver as many as RunAll and strictly fewer than unrouted runs",
			exTokens, runAllTokens, unroutedTokens)
	}
}

// servedAnswer is one /query response: the body and the stats trailers
// a client sees.
type servedAnswer struct {
	body, tokens, peak string
}

// postQuery posts one query and returns its answer, failing on any
// status but 200.
func postQuery(base, doc, query string) (servedAnswer, error) {
	resp, err := http.Post(base+"/query?doc="+doc, "text/plain", strings.NewReader(query))
	if err != nil {
		return servedAnswer{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return servedAnswer{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return servedAnswer{}, fmt.Errorf("%s: status %d: %s", doc, resp.StatusCode, body)
	}
	return servedAnswer{
		body:   string(body),
		tokens: resp.Trailer.Get("X-Flux-Tokens"),
		peak:   resp.Trailer.Get("X-Flux-Peak-Buffer-Bytes"),
	}, nil
}

// postWave posts every Figure 4 query against doc concurrently and
// returns the answers in xmark.QueryNames order.
func postWave(t *testing.T, base, doc string) []servedAnswer {
	t.Helper()
	answers := make([]servedAnswer, len(xmark.QueryNames))
	errs := make([]error, len(xmark.QueryNames))
	var wg sync.WaitGroup
	for i, qname := range xmark.QueryNames {
		wg.Add(1)
		go func() {
			defer wg.Done()
			answers[i], errs[i] = postQuery(base, doc, xmark.Queries[qname])
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", xmark.QueryNames[i], err)
		}
	}
	return answers
}

// spawnTier starts one embedded worker per shard of the placement and,
// when withRouter is set, a Router over them; it returns the base URL
// clients post to (the router's, or else the only worker's), the
// router, if any, and the workers.
func spawnTier(t *testing.T, w *workload, placement map[string][]int, shards int, ex flux.ExecutorOptions, withRouter bool) (string, *shard.Router, []*shard.EmbeddedShard) {
	t.Helper()
	m, err := shard.NewMapFromPlacement(placement, shards)
	if err != nil {
		t.Fatal(err)
	}
	var specs []shard.DocSpec
	for doc := range placement {
		specs = append(specs, shard.DocSpec{Name: doc, DocPath: w.docPath, DTDPath: w.dtdPath})
	}
	workers, err := shard.SpawnEmbedded(m, specs, shard.EmbeddedOptions{Executor: ex, Admin: withRouter})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, wk := range workers {
			wk.Close()
		}
	})
	if !withRouter {
		return workers[0].Addr, nil, workers
	}
	rt, err := shard.NewRouter(shard.RouterOptions{Map: m, Shards: shard.Addrs(workers), HealthInterval: -1, Admin: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: rt}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	return "http://" + ln.Addr().String(), rt, workers
}

// checkSharding: the document registered twice, served by one worker
// holding both copies and by a Router over two workers holding one
// each, answers every query with the same body and stats trailers.
func checkSharding(t *testing.T, w *workload) {
	// With every worker's processors held, each document's five queries
	// leave as one batch (MaxBatch) in both tiers, so the batches, and
	// with them the trailers, agree.
	ex := flux.ExecutorOptions{Window: time.Minute, MaxBatch: len(xmark.QueryNames)}
	single, _, singleWorkers := spawnTier(t, w, map[string][]int{"x0": {0}, "x1": {0}}, 1, ex, false)
	sharded, _, shardedWorkers := spawnTier(t, w, map[string][]int{"x0": {0}, "x1": {1}}, 2, ex, true)
	for _, wk := range append(singleWorkers, shardedWorkers...) {
		holdtest.Hold(t, wk.Worker().Catalog().Add, wk.Worker().Executor().ExecuteContext)
	}
	for _, doc := range []string{"x0", "x1"} {
		want := postWave(t, single, doc)
		got := postWave(t, sharded, doc)
		for i, qname := range xmark.QueryNames {
			if want[i].tokens == "" || want[i].peak == "" {
				t.Fatalf("%s %s: single worker sent no stats trailers", doc, qname)
			}
			if got[i] != want[i] {
				t.Errorf("%s %s: sharded answer (%d body bytes, tokens %q, peak %q) differs from single worker (%d, %q, %q)",
					doc, qname, len(got[i].body), got[i].tokens, got[i].peak, len(want[i].body), want[i].tokens, want[i].peak)
			}
		}
	}
}

// migrateWaves is how many waves of the five queries the migration row
// posts; the live run's /admin/migrate races the middle wave, and the
// waves after it are served by the document's new owner.
const migrateWaves = 3

// migrationRun posts migrateWaves waves against a 2-shard tier, live
// moving the document from shard 0 to shard 1 during the second wave,
// and returns every answer in order with the summed X-Flux-Tokens.
func migrationRun(t *testing.T, w *workload, live bool) ([]servedAnswer, int64) {
	base, rt, _ := spawnTier(t, w, map[string][]int{"m0": {0}}, 2,
		flux.ExecutorOptions{Window: 2 * time.Millisecond, MaxBatch: len(xmark.QueryNames)}, true)
	var all []servedAnswer
	var tokens int64
	for wave := 0; wave < migrateWaves; wave++ {
		var migrated chan error
		if live && wave == 1 {
			migrated = make(chan error, 1)
			go func() {
				resp, err := http.Post(base+"/admin/migrate?doc=m0&from=0&to=1", "text/plain", nil)
				if err == nil {
					msg, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("status %d: %s", resp.StatusCode, msg)
					}
				}
				migrated <- err
			}()
		}
		answers := postWave(t, base, "m0")
		if migrated != nil {
			if err := <-migrated; err != nil {
				t.Fatalf("/admin/migrate: %v", err)
			}
		}
		for _, a := range answers {
			var n int64
			if _, err := fmt.Sscan(a.tokens, &n); err != nil {
				t.Fatalf("wave %d: X-Flux-Tokens %q: %v", wave, a.tokens, err)
			}
			tokens += n
		}
		all = append(all, answers...)
	}
	if live {
		if owners := rt.Topology().View().Owners("m0"); len(owners) != 1 || owners[0] != 1 {
			t.Fatalf("migration did not move m0 to shard 1: owners %v", owners)
		}
	}
	return all, tokens
}

// checkMigration: a live move racing the query stream is invisible to
// it — same bodies, same summed tokens as the static run.
func checkMigration(t *testing.T, w *workload) {
	want, wantTokens := migrationRun(t, w, false)
	got, gotTokens := migrationRun(t, w, true)
	for i := range want {
		if got[i].body != want[i].body {
			t.Errorf("wave %d %s: body differs under migration (%d bytes, static %d)",
				i/len(xmark.QueryNames), xmark.QueryNames[i%len(xmark.QueryNames)], len(got[i].body), len(want[i].body))
		}
	}
	if gotTokens != wantTokens {
		t.Errorf("summed X-Flux-Tokens = %d under migration, %d static", gotTokens, wantTokens)
	}
}

// streamChunkBytes is the replay's write granularity: every chunk
// boundary falls mid-token somewhere in the document.
const streamChunkBytes = 32 << 10

// wholeDocumentQuery copies the document out. Standing subscriptions
// prune subtrees no query reads, so without it a replay that lost
// bytes no Figure 4 query reads would go unnoticed.
const wholeDocumentQuery = `<out> { for $s in /site return {$s} } </out>`

// checkStreaming: the five queries, and a copy of the whole document,
// as standing subscriptions over the document replayed in chunks
// through a stream.Hub produce what the static shared scan produces.
func checkStreaming(t *testing.T, w *workload) {
	texts := []string{wholeDocumentQuery}
	for _, qname := range xmark.QueryNames {
		texts = append(texts, xmark.Queries[qname])
	}
	queries := make([]*flux.Query, len(texts))
	want := make([]bytes.Buffer, len(texts))
	ws := make([]io.Writer, len(texts))
	for i, text := range texts {
		q, err := flux.Prepare(text, xmark.DTD)
		if err != nil {
			t.Fatal(err)
		}
		queries[i], ws[i] = q, &want[i]
	}
	if _, err := flux.RunAll(queries, bytes.NewReader(w.doc), flux.Options{}, ws...); err != nil {
		t.Fatal(err)
	}

	cat := flux.NewCatalog(flux.CatalogOptions{})
	if err := cat.AddStream("s0", xmark.DTD); err != nil {
		t.Fatal(err)
	}
	hub := stream.NewHub(cat, stream.Options{})
	defer hub.Close()
	ctx := context.Background()
	got := make([]bytes.Buffer, len(texts))
	subs := make([]*stream.Subscription, len(texts))
	for i, text := range texts {
		sub, err := hub.Subscribe(ctx, "s0", text, &got[i], stream.PolicyBlock)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
	}
	ing, err := hub.StartIngest(ctx, "s0")
	if err != nil {
		t.Fatal(err)
	}
	for rest := w.doc; len(rest) > 0; {
		n := min(streamChunkBytes, len(rest))
		if _, err := ing.Write(rest[:n]); err != nil {
			ing.Abort(err)
			t.Fatal(err)
		}
		rest = rest[n:]
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	for i, sub := range subs {
		<-sub.Done()
		if err := sub.Err(); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		// Done has closed, so the drain goroutine's writes are complete.
		if !bytes.Equal(got[i].Bytes(), want[i].Bytes()) {
			t.Errorf("query %d: streamed output (%d bytes) differs from the static scan (%d bytes):\n%s",
				i, got[i].Len(), want[i].Len(), texts[i])
		}
	}
}
