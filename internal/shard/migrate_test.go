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
	"strings"
	"sync"
	"testing"
	"time"

	"flux"
)

// migrateURL builds the /admin/migrate request for a tier.
func migrateURL(base, doc string, from, to int) string {
	return fmt.Sprintf("%s/admin/migrate?doc=%s&from=%d&to=%d", base, doc, from, to)
}

// getTopology decodes the router's /admin/shards payload.
func getTopology(t *testing.T, base string) TopologyStatus {
	t.Helper()
	resp, err := http.Get(base + "/admin/shards")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/admin/shards status %d", resp.StatusCode)
	}
	var topo TopologyStatus
	if err := json.NewDecoder(resp.Body).Decode(&topo); err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestMigrateMovesDocument is the protocol's happy path over HTTP: the
// document moves between shards, the epoch advances, results stay
// byte-identical, the target serves new queries, and the source no
// longer holds a copy.
func TestMigrateMovesDocument(t *testing.T) {
	shards, rt, ts := spawnTier(t, testDocs, 2, "alpha: 0\n")
	before := getTopology(t, ts.URL)
	_, wantBody := post(t, ts.URL+"/query?doc=alpha", testQueries[0])

	resp, body := post(t, migrateURL(ts.URL, "alpha", 0, 1), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("migrate status %d: %s", resp.StatusCode, body)
	}
	var rep MigrateReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Doc != "alpha" || rep.From != 0 || rep.To != 1 || rep.Warning != "" {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Epoch != before.Epoch+1 {
		t.Fatalf("report epoch = %d, want %d", rep.Epoch, before.Epoch+1)
	}

	after := getTopology(t, ts.URL)
	if after.Epoch != before.Epoch+1 || len(after.Pending) != 0 {
		t.Fatalf("topology after migrate: %+v", after)
	}
	gotResp, gotBody := post(t, ts.URL+"/query?doc=alpha", testQueries[0])
	if gotResp.StatusCode != http.StatusOK || gotBody != wantBody {
		t.Fatalf("post-migrate query: status %d, identical %v", gotResp.StatusCode, gotBody == wantBody)
	}
	if got := gotResp.Header.Get("X-Flux-Shard"); got != "1" {
		t.Fatalf("post-migrate query served by shard %q, want 1", got)
	}
	// The source worker no longer registers the document; the target
	// does.
	if docs := shards[0].Worker().Catalog().Docs(); containsString(docs, "alpha") {
		t.Fatalf("source still holds alpha: %v", docs)
	}
	if docs := shards[1].Worker().Catalog().Docs(); !containsString(docs, "alpha") {
		t.Fatalf("target does not hold alpha: %v", docs)
	}
	_ = rt
}

func containsString(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

// TestMigrateUnderQueryBurst is the acceptance criterion: a concurrent
// query burst runs across the whole migration window and every query
// succeeds with byte-identical output — no drops, no 404s, no partial
// results.
func TestMigrateUnderQueryBurst(t *testing.T) {
	_, _, ts := spawnTier(t, testDocs, 2, "alpha: 0\n")
	_, wantBody := post(t, ts.URL+"/query?doc=alpha", testQueries[0])

	const workers, perWorker = 8, 30
	var wg sync.WaitGroup
	errs := make(chan string, workers*perWorker)
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < perWorker; i++ {
				resp, body := post(t, ts.URL+"/query?doc=alpha", testQueries[0])
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("status %d: %s", resp.StatusCode, body)
					return
				}
				if body != wantBody {
					errs <- fmt.Sprintf("body diverged: %q", body)
					return
				}
			}
		}()
	}
	close(start)
	// Fire the migration while the burst is in full swing.
	time.Sleep(5 * time.Millisecond)
	resp, body := post(t, migrateURL(ts.URL, "alpha", 0, 1), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("migrate status %d: %s", resp.StatusCode, body)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatalf("query failed during migration: %s", e)
	}
	if topo := getTopology(t, ts.URL); len(topo.Pending) != 0 {
		t.Fatalf("migration never settled: %+v", topo.Pending)
	}
}

// postOutcome is one finished /query request's result.
type postOutcome struct {
	status int
	shard  string
	body   string
	err    error
}

// heldQuery is a /query request whose body is being withheld: the
// router has already routed it — and counted it in flight against the
// epoch it routed under — but cannot proceed until the body arrives.
// It pins a drain window open deterministically.
type heldQuery struct {
	pw   *io.PipeWriter
	text string
	resp chan postOutcome
}

// holdQuery opens a /query request and withholds its body. Call release
// to ship the query text and collect the outcome.
func holdQuery(base, doc, query string) *heldQuery {
	pr, pw := io.Pipe()
	h := &heldQuery{pw: pw, text: query, resp: make(chan postOutcome, 1)}
	go func() {
		resp, err := http.Post(base+"/query?doc="+doc, "text/plain", pr)
		if err != nil {
			h.resp <- postOutcome{err: err}
			return
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		h.resp <- postOutcome{
			status: resp.StatusCode,
			shard:  resp.Header.Get("X-Flux-Shard"),
			body:   string(b),
			err:    err,
		}
	}()
	return h
}

// release ships the withheld query text and returns the outcome.
func (h *heldQuery) release() postOutcome {
	io.WriteString(h.pw, h.text)
	h.pw.Close()
	return <-h.resp
}

// waitTopology polls /admin/shards until cond holds.
func waitTopology(t *testing.T, base, what string, cond func(TopologyStatus) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		topo := getTopology(t, base)
		if cond(topo) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened: %+v", what, topo)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// inflightUnder reports the in-flight count the topology shows for
// epoch e.
func inflightUnder(topo TopologyStatus, e int64) int64 {
	return topo.InflightByEpoch[fmt.Sprint(e)]
}

// TestMigrateDrainWaitsForInflight: a migration fired while a query
// admitted under the old epoch is still in flight enters the drain
// window (dual ownership, visible in /admin/shards), lets the old query
// complete on the source copy with full results, and only then retires
// the source.
func TestMigrateDrainWaitsForInflight(t *testing.T) {
	_, rt, ts := spawnTier(t, testDocs, 2, "alpha: 0\nbeta: 1\ngamma: 1\n")
	_, wantBody := post(t, ts.URL+"/query?doc=alpha", testQueries[0])
	epoch1 := getTopology(t, ts.URL).Epoch

	held := holdQuery(ts.URL, "alpha", testQueries[0])
	waitTopology(t, ts.URL, "held query entering epoch accounting", func(topo TopologyStatus) bool {
		return inflightUnder(topo, epoch1) >= 1
	})

	migDone := make(chan postOutcome, 1)
	go func() {
		resp, body := post(t, migrateURL(ts.URL, "alpha", 0, 1), "")
		migDone <- postOutcome{status: resp.StatusCode, body: body}
	}()

	// The migration must reach the drain window and hold there while
	// the old-epoch query is in flight.
	waitTopology(t, ts.URL, "drain window", func(topo TopologyStatus) bool {
		return len(topo.Pending) == 1 && topo.Pending[0].State == "draining"
	})
	select {
	case res := <-migDone:
		t.Fatalf("migration finished with an old-epoch query in flight: %+v", res)
	case <-time.After(50 * time.Millisecond):
	}

	// New queries already route to the target during the drain.
	if resp, _ := post(t, ts.URL+"/query?doc=alpha", testQueries[0]); resp.Header.Get("X-Flux-Shard") != "1" {
		t.Fatalf("drain-window query served by shard %q, want 1", resp.Header.Get("X-Flux-Shard"))
	}

	// Release the held query: it must complete from the source copy,
	// byte-identical, and only then may the migration commit.
	out := held.release()
	if out.err != nil || out.status != http.StatusOK || out.body != wantBody {
		t.Fatalf("held query: %+v, want 200 with identical body", out)
	}
	if out.shard != "0" {
		t.Fatalf("held query served by shard %q, want the source 0", out.shard)
	}
	res := <-migDone
	if res.status != http.StatusOK {
		t.Fatalf("migration failed after drain: %d %s", res.status, res.body)
	}
	if got := rt.Topology().View().Owners("alpha"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("alpha owners = %v, want [1]", got)
	}
}

// TestMigrateSourceKilledMidDrain: the source shard dies while the
// drain window is open. The held old-epoch query fails against its dead
// worker — the same contract as any shard death — but the migration
// itself commits: the target copy serves, the impossible retire is a
// warning, and the tier keeps answering.
func TestMigrateSourceKilledMidDrain(t *testing.T) {
	shards, _, ts := spawnTier(t, testDocs, 2, "alpha: 0\nbeta: 1\ngamma: 1\n")
	epoch1 := getTopology(t, ts.URL).Epoch

	held := holdQuery(ts.URL, "alpha", testQueries[0])
	waitTopology(t, ts.URL, "held query entering epoch accounting", func(topo TopologyStatus) bool {
		return inflightUnder(topo, epoch1) >= 1
	})

	migDone := make(chan postOutcome, 1)
	go func() {
		resp, body := post(t, migrateURL(ts.URL, "alpha", 0, 1), "")
		migDone <- postOutcome{status: resp.StatusCode, body: body}
	}()
	waitTopology(t, ts.URL, "drain window", func(topo TopologyStatus) bool {
		return len(topo.Pending) == 1 && topo.Pending[0].State == "draining"
	})

	shards[0].Close() // kill the source mid-drain

	// The released query routed under the old epoch to the now-dead
	// source; with no live replica in its view it fails loudly.
	if out := held.release(); out.err == nil && out.status == http.StatusOK {
		t.Fatalf("held query succeeded against a dead source: %+v", out)
	}
	// Its exit drains the old epoch, and the migration commits; the
	// dead source cannot be retired, which is a warning, not an error.
	res := <-migDone
	if res.status != http.StatusOK {
		t.Fatalf("migration failed after source death: %d %s", res.status, res.body)
	}
	var rep MigrateReport
	if err := json.Unmarshal([]byte(res.body), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Warning == "" || !strings.Contains(rep.Warning, "retire") {
		t.Fatalf("report = %+v, want a retire warning for the dead source", rep)
	}
	// The tier serves the migrated document from the target.
	resp, body := post(t, ts.URL+"/query?doc=alpha", testQueries[0])
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Flux-Shard") != "1" {
		t.Fatalf("post-migrate query: status %d shard %q: %.120s", resp.StatusCode, resp.Header.Get("X-Flux-Shard"), body)
	}
	if topo := getTopology(t, ts.URL); len(topo.Pending) != 0 {
		t.Fatalf("migration left pending state: %+v", topo.Pending)
	}
}

// TestMigrateDrainInterrupted: a move whose drain ends early (its ctx
// is canceled while an old-epoch query holds the drain open) publishes
// no rollback. Routing stays on the target, which holds a complete
// copy; the change is released; the source copy stays installed but
// unrouted, so the held query still completes on it; the report warns.
// A move back onto the source then replaces that leftover (resumed)
// rather than trusting it.
func TestMigrateDrainInterrupted(t *testing.T) {
	shards, rt, ts := spawnTier(t, testDocs, 2, "alpha: 0\nbeta: 1\ngamma: 1\n")
	_, wantBody := post(t, ts.URL+"/query?doc=alpha", testQueries[0])
	epoch1 := getTopology(t, ts.URL).Epoch

	held := holdQuery(ts.URL, "alpha", testQueries[0])
	// Unblock the held request if the test fails first, so the
	// server can shut down.
	t.Cleanup(func() { held.pw.Close() })
	waitTopology(t, ts.URL, "held query entering epoch accounting", func(topo TopologyStatus) bool {
		return inflightUnder(topo, epoch1) >= 1
	})
	ctx, cancel := context.WithCancel(context.Background())
	type result struct {
		rep MigrateReport
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := rt.MigrateDoc(ctx, "alpha", 0, 1)
		done <- result{rep, err}
	}()
	waitTopology(t, ts.URL, "drain window", func(topo TopologyStatus) bool {
		return len(topo.Pending) == 1 && topo.Pending[0].State == "draining"
	})
	cancel()
	res := <-done
	if res.err != nil {
		t.Fatalf("interrupted drain returned an error: %v", res.err)
	}
	if res.rep.Warning == "" || res.rep.Epoch != epoch1+1 {
		t.Fatalf("report = %+v, want a warning and epoch %d", res.rep, epoch1+1)
	}
	if got := rt.Topology().View().Owners("alpha"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("owners = %v, want [1] (no rollback)", got)
	}
	if topo := getTopology(t, ts.URL); len(topo.Pending) != 0 || topo.Epoch != epoch1+1 {
		t.Fatalf("topology after interrupted drain: %+v", topo)
	}
	if docs := shards[0].Worker().Catalog().Docs(); !containsString(docs, "alpha") {
		t.Fatalf("source copy retired under an in-flight query: %v", docs)
	}
	if out := held.release(); out.err != nil || out.status != http.StatusOK || out.body != wantBody || out.shard != "0" {
		t.Fatalf("held query: %+v, want 200 from the source with identical body", out)
	}

	back, err := rt.MigrateDoc(context.Background(), "alpha", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Resumed || back.Warning != "" {
		t.Fatalf("move back = %+v, want resumed without warning", back)
	}
	resp, body := post(t, ts.URL+"/query?doc=alpha", testQueries[0])
	if resp.StatusCode != http.StatusOK || body != wantBody || resp.Header.Get("X-Flux-Shard") != "0" {
		t.Fatalf("post-move-back query: status %d shard %q identical %v", resp.StatusCode, resp.Header.Get("X-Flux-Shard"), body == wantBody)
	}
}

// TestMigrateAbortsOnCopyFailure: a migration whose target is dead
// fails in the copy step and aborts cleanly — no epoch change, no
// pending state, the source keeps serving.
func TestMigrateAbortsOnCopyFailure(t *testing.T) {
	shards, _, ts := spawnTier(t, testDocs, 2, "alpha: 0\n")
	before := getTopology(t, ts.URL)
	shards[1].Close() // the target

	resp, body := post(t, migrateURL(ts.URL, "alpha", 0, 1), "")
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("migrate to a dead target: status %d (%s), want 502", resp.StatusCode, body)
	}
	after := getTopology(t, ts.URL)
	if after.Epoch != before.Epoch || len(after.Pending) != 0 {
		t.Fatalf("failed copy mutated the topology: %+v", after)
	}
	if resp, _ := post(t, ts.URL+"/query?doc=alpha", testQueries[0]); resp.StatusCode != http.StatusOK {
		t.Fatalf("source stopped serving after aborted migration: %d", resp.StatusCode)
	}

	// Validation failures answer 400 without touching anything.
	if resp, _ := post(t, migrateURL(ts.URL, "alpha", 1, 0), ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("migrate from a non-owner: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := post(t, migrateURL(ts.URL, "nope", 0, 1), ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("migrate unknown doc: status %d, want 400", resp.StatusCode)
	}
}

// TestMigrateReplacesStaleTargetCopy: a leftover same-name copy on the
// target (an aborted earlier migration whose source was since
// hot-swapped) is retired and re-copied, never trusted — the rerun
// reports resumed and queries serve the source's current bytes.
func TestMigrateReplacesStaleTargetCopy(t *testing.T) {
	shards, _, ts := spawnTier(t, testDocs, 2, "alpha: 0\n")
	_, wantBody := post(t, ts.URL+"/query?doc=alpha", testQueries[0])

	// Plant a stale, different document under alpha's name on the
	// target, exactly what an aborted migration plus a source swap
	// would leave behind.
	staleDir := t.TempDir()
	stalePath := filepath.Join(staleDir, "stale.xml")
	if err := os.WriteFile(stalePath, []byte(testDocs["beta"]), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := shards[1].Worker().Catalog().Add("alpha", stalePath, testDTD); err != nil {
		t.Fatal(err)
	}

	resp, body := post(t, migrateURL(ts.URL, "alpha", 0, 1), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("migrate status %d: %s", resp.StatusCode, body)
	}
	var rep MigrateReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Resumed {
		t.Fatalf("report = %+v, want resumed (stale copy detected)", rep)
	}
	gotResp, gotBody := post(t, ts.URL+"/query?doc=alpha", testQueries[0])
	if gotResp.StatusCode != http.StatusOK || gotBody != wantBody {
		t.Fatalf("post-migrate query served stale bytes: status %d, body %q, want %q", gotResp.StatusCode, gotBody, wantBody)
	}
	if got := gotResp.Header.Get("X-Flux-Shard"); got != "1" {
		t.Fatalf("post-migrate query served by shard %q, want 1", got)
	}
}

// TestMigrateStatsMergeMidInstall: /stats merges cleanly while a
// migration holds dual ownership — the migrating document appears once
// in the rollup with its counters summed across both owners, and no
// shard is reported missing.
func TestMigrateStatsMergeMidInstall(t *testing.T) {
	_, _, ts := spawnTier(t, testDocs, 2, "alpha: 0\nbeta: 1\ngamma: 1\n")
	// Give the migrating document history on the source so the rollup
	// has counters to sum.
	post(t, ts.URL+"/query?doc=alpha", testQueries[0])
	epoch1 := getTopology(t, ts.URL).Epoch

	held := holdQuery(ts.URL, "alpha", testQueries[0])
	waitTopology(t, ts.URL, "held query entering epoch accounting", func(topo TopologyStatus) bool {
		return inflightUnder(topo, epoch1) >= 1
	})
	migDone := make(chan struct{})
	go func() {
		defer close(migDone)
		post(t, migrateURL(ts.URL, "alpha", 0, 1), "")
	}()
	waitTopology(t, ts.URL, "drain window", func(topo TopologyStatus) bool {
		return len(topo.Pending) == 1 && topo.Pending[0].State == "draining"
	})

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stats mid-install: %v %v", resp, err)
	}
	var merged MergedStats
	err = json.NewDecoder(resp.Body).Decode(&merged)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Missing) != 0 {
		t.Fatalf("missing = %v with both shards up", merged.Missing)
	}
	if len(merged.PerShard) != 2 {
		t.Fatalf("per_shard has %d entries mid-install, want 2", len(merged.PerShard))
	}
	// Both owners report the document mid-install (the target with zero
	// or few counters); the rollup entry is their exact sum.
	var sum flux.DocStats
	reporters := 0
	for _, st := range merged.PerShard {
		if d, ok := st.Docs["alpha"]; ok {
			sum = addDocStats(sum, d)
			reporters++
		}
	}
	if reporters != 2 {
		t.Fatalf("alpha reported by %d shards mid-install, want 2 (dual ownership)", reporters)
	}
	if merged.Rollup.Docs["alpha"] != sum {
		t.Fatalf("rollup.alpha = %+v, want per-shard sum %+v", merged.Rollup.Docs["alpha"], sum)
	}

	held.release()
	<-migDone
}

// TestRouterAdminGate: without RouterOptions.Admin every /admin/*
// endpoint — the topology report included — answers 403, mirroring
// fluxd's worker-side gate.
func TestRouterAdminGate(t *testing.T) {
	specs := writeCorpus(t, testDocs)
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.Name
	}
	m, err := NewMap(names, 2)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := SpawnEmbedded(m, specs, EmbeddedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(RouterOptions{Map: m, Shards: Addrs(shards), HealthInterval: -1})
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

	for _, ep := range []string{"/admin/shards", "/admin/migrate?doc=alpha&from=0&to=1", "/admin/rebalancer", "/admin/anything"} {
		resp, body := post(t, ts.URL+ep, "")
		if resp.StatusCode != http.StatusForbidden {
			t.Errorf("POST %s without -admin: status %d (%s), want 403", ep, resp.StatusCode, body)
		}
	}
	resp, err := http.Get(ts.URL + "/admin/shards")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("GET /admin/shards without -admin: status %d, want 403", resp.StatusCode)
	}
	// The read-only serving surface stays open.
	if resp, _ := post(t, ts.URL+"/query?doc=alpha", testQueries[0]); resp.StatusCode != http.StatusOK {
		t.Errorf("/query gated by accident: %d", resp.StatusCode)
	}
}
