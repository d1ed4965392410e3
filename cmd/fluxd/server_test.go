package main

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
	"flux/internal/holdtest"
	"flux/internal/shard"
)

const serverDTD = `
<!ELEMENT bib (book*)>
<!ELEMENT book (title,year)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT year (#PCDATA)>
`

const serverDoc = `<bib>` +
	`<book><title>FluX</title><year>2004</year></book>` +
	`<book><title>XMark</title><year>2002</year></book>` +
	`<book><title>Galax</title><year>2004</year></book>` +
	`</bib>`

const serverDoc2 = `<bib>` +
	`<book><title>Streams</title><year>2003</year></book>` +
	`</bib>`

// writeDocPair writes <name>.xml and <name>.dtd into dir.
func writeDocPair(t *testing.T, dir, name, doc string) string {
	t.Helper()
	docPath := filepath.Join(dir, name+".xml")
	if err := os.WriteFile(docPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".dtd"), []byte(serverDTD), 0o644); err != nil {
		t.Fatal(err)
	}
	return docPath
}

// testServer builds a single-document server with a deterministic
// batching setup.
func testServer(t *testing.T, maxBatch int, window time.Duration) (*shard.Server, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	docPath := filepath.Join(dir, "bib.xml")
	dtdPath := filepath.Join(dir, "bib.dtd")
	if err := os.WriteFile(docPath, []byte(serverDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dtdPath, []byte(serverDTD), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := newServer(config{
		docs:     []shard.DocSpec{{Name: "bib", DocPath: docPath, DTDPath: dtdPath}},
		window:   window,
		maxBatch: maxBatch,
		admin:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// testServerDocroot builds a multi-document server from a docroot-style
// config.
func testServerDocroot(t *testing.T, maxBatch int, window time.Duration) (*shard.Server, *httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	writeDocPair(t, dir, "alpha", serverDoc)
	writeDocPair(t, dir, "beta", serverDoc2)
	specs, err := shard.ScanDocroot(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newServer(config{docs: specs, window: window, maxBatch: maxBatch, admin: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts, dir
}

func postQuery(t *testing.T, url, query string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(query))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// TestServerBatchesConcurrentRequests: with maxBatch == number of
// concurrent clients, a long window and every processor held, all
// requests must execute in one shared scan and return exactly the
// single-run results.
func TestServerBatchesConcurrentRequests(t *testing.T) {
	queries := []string{
		`<out> { for $b in /bib/book return {$b/title} } </out>`,
		`<out> { for $b in /bib/book where $b/year = '2004' return {$b} } </out>`,
		`<out> { for $b in /bib/book return <y> {$b/year} </y> } </out>`,
		`<out> { for $b in /bib/book where $b/title = 'XMark' return {$b/year} } </out>`,
	}
	s, ts := testServer(t, len(queries), 30*time.Second)

	want := make([]string, len(queries))
	for i, qt := range queries {
		q, err := flux.Prepare(qt, serverDTD)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		out, _, err := q.RunString(serverDoc, flux.Options{})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		want[i] = out
	}

	// The hold registers a second document, so name the one queried.
	release := holdtest.Hold(t, s.Catalog().Add, s.Executor().ExecuteContext)
	var wg sync.WaitGroup
	for i, qt := range queries {
		wg.Add(1)
		go func(i int, qt string) {
			defer wg.Done()
			resp, body := postQuery(t, ts.URL+"/query?doc=bib", qt)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("query %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			if body != want[i] {
				t.Errorf("query %d: body %q, want %q", i, body, want[i])
			}
			if got := resp.Trailer.Get("X-Flux-Batch-Size"); got != fmt.Sprint(len(queries)) {
				t.Errorf("query %d: batch size trailer %q, want %d", i, got, len(queries))
			}
			if resp.Trailer.Get("X-Flux-Tokens") == "" {
				t.Errorf("query %d: missing tokens trailer", i)
			}
		}(i, qt)
	}
	wg.Wait()
	release()

	st := s.Executor().Stats()["bib"]
	if st.Scans != 1 || st.Queries != int64(len(queries)) {
		t.Errorf("scans = %d, queries = %d; want 1 shared scan for %d queries", st.Scans, st.Queries, len(queries))
	}
}

// TestServerWindowDispatch: a lone request below maxBatch does not wait
// out the window for companions; with a processor free it dispatches at
// once, alone, even under a one-minute -window.
func TestServerWindowDispatch(t *testing.T) {
	_, ts := testServer(t, 100, time.Minute)
	const query = `<titles> { for $b in /bib/book return {$b/title} } </titles>`
	q, err := flux.Prepare(query, serverDTD)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := q.RunString(serverDoc, flux.Options{})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, body := postQuery(t, ts.URL+"/query", query)
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("lone request took %s under a one-minute window", d)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if body != want {
		t.Fatalf("body = %q, want %q", body, want)
	}
	if got := resp.Trailer.Get("X-Flux-Batch-Size"); got != "1" {
		t.Errorf("batch size trailer = %q, want 1", got)
	}
}

// TestServerMultiDoc: /query?doc= routes to the right document; a
// missing doc param with several documents registered is a clear client
// error; an unknown name is 404.
func TestServerMultiDoc(t *testing.T) {
	_, ts, _ := testServerDocroot(t, 100, time.Millisecond)
	const query = `<out> { for $b in /bib/book return {$b/title} } </out>`

	resp, body := postQuery(t, ts.URL+"/query?doc=alpha", query)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "FluX") {
		t.Fatalf("alpha: status %d body %q", resp.StatusCode, body)
	}
	resp, body = postQuery(t, ts.URL+"/query?doc=beta", query)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "Streams") {
		t.Fatalf("beta: status %d body %q", resp.StatusCode, body)
	}
	resp, body = postQuery(t, ts.URL+"/query", query)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "?doc=") {
		t.Fatalf("no doc param: status %d body %q", resp.StatusCode, body)
	}
	resp, _ = postQuery(t, ts.URL+"/query?doc=nope", query)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown doc: status %d, want 404", resp.StatusCode)
	}
}

// TestServerDocsEndpoint: /docs lists the catalog.
func TestServerDocsEndpoint(t *testing.T) {
	_, ts, _ := testServerDocroot(t, 100, time.Millisecond)
	resp, err := http.Get(ts.URL + "/docs")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("docs: %v %v", resp, err)
	}
	var infos []flux.DocInfo
	err = json.NewDecoder(resp.Body).Decode(&infos)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Name != "alpha" || infos[1].Name != "beta" {
		t.Fatalf("docs = %+v", infos)
	}
}

// TestServerHotSwap: /admin/swap repoints a document; subsequent queries
// see the new content and /docs reports the swap count.
func TestServerHotSwap(t *testing.T) {
	_, ts, dir := testServerDocroot(t, 100, time.Millisecond)
	newPath := filepath.Join(dir, "replacement.xml")
	if err := os.WriteFile(newPath, []byte(serverDoc2), 0o644); err != nil {
		t.Fatal(err)
	}
	const query = `<out> { for $b in /bib/book return {$b/title} } </out>`

	resp, err := http.Post(ts.URL+"/admin/swap?doc=alpha&path="+newPath, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var info flux.DocInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || info.Swaps != 1 || info.Path != newPath {
		t.Fatalf("swap: status %d info %+v", resp.StatusCode, info)
	}

	if resp, body := postQuery(t, ts.URL+"/query?doc=alpha", query); resp.StatusCode != http.StatusOK ||
		!strings.Contains(body, "Streams") || strings.Contains(body, "FluX") {
		t.Fatalf("post-swap query: status %d body %q", resp.StatusCode, body)
	}

	// Swapping to a missing file is rejected and leaves the binding.
	resp, err = http.Post(ts.URL+"/admin/swap?doc=alpha&path="+filepath.Join(dir, "missing.xml"), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("swap to missing file: status %d, want 400", resp.StatusCode)
	}
	// Unknown document is 404.
	resp, err = http.Post(ts.URL+"/admin/swap?doc=nope&path="+newPath, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("swap unknown doc: status %d, want 404", resp.StatusCode)
	}
}

// TestServerBadQuery: a query outside the fragment is a client error,
// reported before any scan runs.
func TestServerBadQuery(t *testing.T) {
	s, ts := testServer(t, 100, 5*time.Millisecond)
	resp, body := postQuery(t, ts.URL+"/query", `<out> { for $b in return } </out>`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d (%s), want 400", resp.StatusCode, body)
	}
	if st := s.Executor().Stats()["bib"]; st.Scans != 0 {
		t.Errorf("a compile error must not trigger a scan; stats = %+v", st)
	}
}

// TestServerStats: per-document counters and compiled-query cache
// counters; a repeated query hits the cache.
func TestServerStats(t *testing.T) {
	_, ts, _ := testServerDocroot(t, 100, time.Millisecond)
	const query = `<out> { for $b in /bib/book return {$b/title} } </out>`
	for i := 0; i < 2; i++ {
		if resp, body := postQuery(t, ts.URL+"/query?doc=alpha", query); resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: %d %s", i, resp.StatusCode, body)
		}
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %v %v", resp, err)
	}
	var reply flux.ServerStats
	err = json.NewDecoder(resp.Body).Decode(&reply)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Docs["alpha"].Queries != 2 || reply.Docs["alpha"].Scans != 2 {
		t.Errorf("alpha stats = %+v", reply.Docs["alpha"])
	}
	if _, ok := reply.Docs["beta"]; !ok {
		t.Error("stats must list documents that have not served yet")
	}
	if reply.Cache.Hits != 1 || reply.Cache.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 miss for a repeated query", reply.Cache)
	}
}

// TestServerClientDisconnect: a client that vanishes mid-batch is
// detached while its batch sibling streams the complete, correct result
// — the whole scan is NOT wasted. Regression test for the
// disconnect-wastes-the-scan bug.
func TestServerClientDisconnect(t *testing.T) {
	// A document big enough that the scan is still comfortably in
	// flight when the disconnect has propagated through the HTTP
	// server's connection watcher (ctx cancellation is asynchronous).
	var sb strings.Builder
	sb.WriteString("<bib>")
	for i := 0; i < 120000; i++ {
		fmt.Fprintf(&sb, "<book><title>vol %06d</title><year>2004</year></book>", i)
	}
	sb.WriteString("</bib>")
	bigDoc := sb.String()

	dir := t.TempDir()
	docPath := filepath.Join(dir, "big.xml")
	dtdPath := filepath.Join(dir, "big.dtd")
	if err := os.WriteFile(docPath, []byte(bigDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dtdPath, []byte(serverDTD), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := newServer(config{
		docs:     []shard.DocSpec{{Name: "big", DocPath: docPath, DTDPath: dtdPath}},
		window:   30 * time.Second, // dispatch strictly on the batch filling
		maxBatch: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	const query = `<out> { for $b in /bib/book return {$b/title} } </out>`
	q, err := flux.Prepare(query, serverDTD)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := q.RunString(bigDoc, flux.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// The hold registers a second document, so both clients name theirs.
	release := holdtest.Hold(t, s.Catalog().Add, s.Executor().ExecuteContext)
	// The surviving client.
	type outcome struct {
		body string
		err  error
	}
	survived := make(chan outcome, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/query?doc=big", "text/plain", strings.NewReader(query))
		if err != nil {
			survived <- outcome{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		survived <- outcome{body: string(body), err: err}
	}()

	// The hanging client: joins the batch (filling it, which dispatches
	// the shared scan), reads a little, then disconnects.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query?doc=big", strings.NewReader(query))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	if _, err := io.ReadFull(resp.Body, buf); err != nil {
		t.Fatalf("hanging client never saw output: %v", err)
	}
	cancel() // disconnect mid-stream
	resp.Body.Close()

	out := <-survived
	release()
	if out.err != nil {
		t.Fatalf("surviving client: %v", out.err)
	}
	if out.body != want {
		t.Fatalf("surviving client's result corrupted: %d bytes, want %d", len(out.body), len(want))
	}

	// The canceled query must be recorded; deadline guards the counter
	// becoming visible after the batch finishes.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := s.Executor().Stats()["big"]; st.Canceled == 1 {
			if st.Scans != 1 || st.Queries != 2 {
				t.Fatalf("stats = %+v, want one shared scan of two queries", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("canceled counter never incremented: %+v", s.Executor().Stats()["big"])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerEndpoints: liveness.
func TestServerEndpoints(t *testing.T) {
	_, ts := testServer(t, 100, time.Millisecond)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()
}

// TestBuildConfigValidation: bad flag values fail startup with clear
// errors instead of silent defaults.
func TestBuildConfigValidation(t *testing.T) {
	dir := t.TempDir()
	docPath := writeDocPair(t, dir, "bib", serverDoc)
	dtdPath := filepath.Join(dir, "bib.dtd")

	cases := []struct {
		name     string
		dtd, doc string
		docroot  string
		window   time.Duration
		maxBatch int
		cacheCap int
		wantErr  string
	}{
		{"negative window", dtdPath, docPath, "", -time.Second, 16, 0, "-window"},
		{"zero window", dtdPath, docPath, "", 0, 16, 0, "-window"},
		{"absurd window", dtdPath, docPath, "", 2 * time.Hour, 16, 0, "absurd"},
		{"zero batch", dtdPath, docPath, "", time.Millisecond, 0, 0, "-max-batch"},
		{"negative batch", dtdPath, docPath, "", time.Millisecond, -3, 0, "-max-batch"},
		{"absurd batch", dtdPath, docPath, "", time.Millisecond, 1 << 20, 0, "absurd"},
		{"negative cache", dtdPath, docPath, "", time.Millisecond, 16, -1, "-query-cache"},
		{"no documents", "", "", "", time.Millisecond, 16, 0, "no documents"},
		{"dtd without doc", dtdPath, "", "", time.Millisecond, 16, 0, "together"},
		{"missing doc file", dtdPath, filepath.Join(dir, "nope.xml"), "", time.Millisecond, 16, 0, "-doc"},
		{"missing docroot", "", "", filepath.Join(dir, "nodir"), time.Millisecond, 16, 0, "-docroot"},
		{"ok", dtdPath, docPath, "", time.Millisecond, 16, 0, ""},
		{"ok docroot", "", "", dir, time.Millisecond, 16, 0, ""},
	}
	for _, tc := range cases {
		_, err := buildConfig(tc.dtd, tc.doc, tc.docroot, tc.window, tc.maxBatch, tc.cacheCap, false, false, 0, shardConfig{shardID: -1}, streamFlags{})
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestScanDocrootValidation: an .xml without its .dtd, and an empty
// docroot, are startup errors.
func TestScanDocrootValidation(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "orphan.xml"), []byte(serverDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.ScanDocroot(dir); err == nil || !strings.Contains(err.Error(), "needs a DTD") {
		t.Errorf("orphan xml: err = %v", err)
	}
	empty := t.TempDir()
	if _, err := shard.ScanDocroot(empty); err == nil || !strings.Contains(err.Error(), "no <name>.xml") {
		t.Errorf("empty docroot: err = %v", err)
	}
}

// TestServerDuplicateDocName: the same name from -doc and -docroot is
// rejected at config build time.
func TestServerDuplicateDocName(t *testing.T) {
	dir := t.TempDir()
	docPath := writeDocPair(t, dir, "bib", serverDoc)
	dtdPath := filepath.Join(dir, "bib.dtd")
	_, err := buildConfig(dtdPath, docPath, dir, time.Millisecond, 16, 0, false, false, 0, shardConfig{shardID: -1}, streamFlags{})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("err = %v, want duplicate-name error", err)
	}
}

// TestServerAdminDisabledByDefault: without -admin, /admin/* is 403 and
// no swap happens.
func TestServerAdminDisabledByDefault(t *testing.T) {
	dir := t.TempDir()
	docPath := writeDocPair(t, dir, "bib", serverDoc)
	dtdPath := filepath.Join(dir, "bib.dtd")
	s, err := newServer(config{
		docs:     []shard.DocSpec{{Name: "bib", DocPath: docPath, DTDPath: dtdPath}},
		window:   time.Millisecond,
		maxBatch: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/admin/swap?doc=bib&path="+docPath, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("admin without -admin: status %d, want 403", resp.StatusCode)
	}
	if info, _ := s.Catalog().Info("bib"); info.Swaps != 0 {
		t.Fatalf("swap happened despite disabled admin: %+v", info)
	}
}

// TestServerSchedulingStats: the memory gate surfaces in /stats — two
// queries over -max-resident-buffer together run in two scans, the
// second queued for admission, selective fan-out shows events_skipped,
// and the admission section counts every query.
func TestServerSchedulingStats(t *testing.T) {
	dir := t.TempDir()
	docPath := writeDocPair(t, dir, "bib", serverDoc)
	// A budget below the buffering queries' cold charge (their 4096-byte
	// prediction): each runs alone, so the second waits for admission and
	// never fills the first's batch — a short window.
	s, err := newServer(config{
		docs:        []shard.DocSpec{{Name: "bib", DocPath: docPath, DTDPath: filepath.Join(dir, "bib.dtd")}},
		window:      20 * time.Millisecond,
		maxBatch:    2,
		maxResident: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	// Both queries buffer (predicted > 4000 each, so neither can share a
	// scan under the budget); the second one projects only titles, so
	// selective fan-out skips the year subtrees for it.
	queries := []string{
		`<out> { for $b in /bib/book where $b/year = '2004' return {$b} } </out>`,
		`<out> { for $b in /bib/book where $b/title = 'XMark' return {$b/title} } </out>`,
	}
	// The hold registers a second document, so name the one queried;
	// its scans are admitted too, so admission is counted from here.
	release := holdtest.Hold(t, s.Catalog().Add, s.Executor().ExecuteContext)
	held := s.Catalog().AdmissionStats().Admitted
	var wg sync.WaitGroup
	for _, q := range queries {
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			resp, _ := postQuery(t, ts.URL+"/query?doc=bib", q)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("query status = %d", resp.StatusCode)
			}
		}(q)
	}
	wg.Wait()
	release()

	resp, body := func() (*http.Response, string) {
		r, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return r, string(b)
	}()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats status = %d", resp.StatusCode)
	}
	var reply flux.ServerStats
	if err := json.Unmarshal([]byte(body), &reply); err != nil {
		t.Fatalf("decoding /stats: %v\n%s", err, body)
	}
	st := reply.Docs["bib"]
	if st.Queries != 2 || st.Scans != 2 {
		t.Errorf("docs.bib = %+v, want 2 queries over 2 scans (over the budget together)", st)
	}
	if st.EventsSkipped == 0 {
		t.Errorf("docs.bib events_skipped = 0, want > 0 (selective fan-out is the default)")
	}
	adm := reply.Admission
	adm.Admitted -= held
	if adm.Admitted != 2 || adm.Queued != 1 || adm.Active != 0 || adm.Waiting != 0 {
		t.Errorf("admission = %+v, want 2 admitted, 1 queued, none active or waiting", adm)
	}
}

// TestSchedulingFlagValidation: the memory gate's flag is validated at
// startup like everything else.
func TestSchedulingFlagValidation(t *testing.T) {
	dir := t.TempDir()
	docPath := writeDocPair(t, dir, "bib", serverDoc)
	dtdPath := filepath.Join(dir, "bib.dtd")
	cases := []struct {
		name        string
		maxResident int64
		wantErr     string
	}{
		{"negative resident", -1, "-max-resident-buffer"},
		{"unlimited", 0, ""},
		{"ok limit", 1 << 24, ""},
	}
	for _, tc := range cases {
		_, err := buildConfig(dtdPath, docPath, "", time.Millisecond, 16, 0, false, false, tc.maxResident, shardConfig{shardID: -1}, streamFlags{})
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestServerShardIdentity: /shardz reports the asserted shard id and
// advertise address (for fluxrouter supervision), and -shard-id below
// -1 fails startup.
func TestServerShardIdentity(t *testing.T) {
	dir := t.TempDir()
	docPath := writeDocPair(t, dir, "bib", serverDoc)
	dtdPath := filepath.Join(dir, "bib.dtd")
	s, err := newServer(config{
		docs:      []shard.DocSpec{{Name: "bib", DocPath: docPath, DTDPath: dtdPath}},
		window:    time.Millisecond,
		maxBatch:  16,
		shardID:   3,
		advertise: "http://worker-3.example:8700",
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/shardz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("shardz: %v %v", resp, err)
	}
	var id shard.Identity
	err = json.NewDecoder(resp.Body).Decode(&id)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if id.ShardID != 3 || id.Advertise != "http://worker-3.example:8700" ||
		len(id.Docs) != 1 || id.Docs[0] != "bib" {
		t.Fatalf("identity = %+v", id)
	}

	if _, err := buildConfig(dtdPath, docPath, "", time.Millisecond, 16, 0, false, false,
		0, shardConfig{shardID: -2}, streamFlags{}); err == nil || !strings.Contains(err.Error(), "-shard-id") {
		t.Fatalf("shard-id -2: err = %v, want -shard-id validation error", err)
	}
}

// TestStreamFlagValidation: -stream-doc and -tail parse and validate at
// startup — malformed bindings, duplicate names, and tails against
// unregistered documents are configuration errors, not serving-time
// surprises.
func TestStreamFlagValidation(t *testing.T) {
	dir := t.TempDir()
	docPath := writeDocPair(t, dir, "bib", serverDoc)
	dtdPath := filepath.Join(dir, "bib.dtd")

	cases := []struct {
		name    string
		streams streamFlags
		wantErr string
	}{
		{"malformed stream-doc", streamFlags{streamDocs: []string{"feedonly"}}, "-stream-doc wants name=dtdpath"},
		{"empty stream-doc name", streamFlags{streamDocs: []string{"=" + dtdPath}}, "-stream-doc wants name=dtdpath"},
		{"missing stream-doc dtd", streamFlags{streamDocs: []string{"feed=" + filepath.Join(dir, "nope.dtd")}}, "-stream-doc feed"},
		{"duplicate vs file doc", streamFlags{streamDocs: []string{"bib=" + dtdPath}}, "duplicate document name"},
		{"malformed tail", streamFlags{tails: []string{"bib"}}, "-tail wants doc=path"},
		{"tail unknown doc", streamFlags{tails: []string{"nosuch=" + docPath}}, "no such document"},
	}
	for _, tc := range cases {
		_, err := buildConfig(dtdPath, docPath, "", time.Millisecond, 16, 0, false, false,
			0, shardConfig{shardID: -1}, tc.streams)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
		}
	}

	// A stream-doc-only server is a valid configuration: no file docs.
	cfg, err := buildConfig("", "", "", time.Millisecond, 16, 0, false, false,
		0, shardConfig{shardID: -1},
		streamFlags{streamDocs: []string{"feed=" + dtdPath}, tails: []string{"feed=" + docPath}})
	if err != nil {
		t.Fatalf("stream-doc only: %v", err)
	}
	if len(cfg.streamDocs) != 1 || cfg.streamDocs[0].name != "feed" {
		t.Fatalf("streamDocs = %+v", cfg.streamDocs)
	}
	if len(cfg.tails) != 1 || cfg.tails[0].doc != "feed" {
		t.Fatalf("tails = %+v", cfg.tails)
	}
}

// TestServerTailIngest: a -tail binding against a regular file ingests
// the document once at startup, feeding parked subscriptions exactly as
// an HTTP /ingest would.
func TestServerTailIngest(t *testing.T) {
	dir := t.TempDir()
	docPath := writeDocPair(t, dir, "bib", serverDoc)
	dtdPath := filepath.Join(dir, "bib.dtd")

	cfg, err := buildConfig("", "", "", time.Millisecond, 16, 0, false, false,
		0, shardConfig{shardID: -1},
		streamFlags{streamDocs: []string{"feed=" + dtdPath}, tails: []string{"feed=" + docPath}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer func() {
		s.Hub().Close()
		ts.Close()
	}()

	// Subscribe first, then start the tail: the parked subscription
	// activates when the tail's ingest begins.
	type result struct {
		body string
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/subscribe?doc=feed", "text/plain",
			strings.NewReader(`{ for $b in /bib/book return {$b/title} }`))
		if err != nil {
			ch <- result{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		ch <- result{body: string(body), err: err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/streamz")
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Waiting int `json:"waiting_subscriptions"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Waiting >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("subscription never parked")
		}
		time.Sleep(2 * time.Millisecond)
	}

	go runTail(s, cfg.tails[0])

	select {
	case res := <-ch:
		if res.err != nil {
			t.Fatal(res.err)
		}
		want := "<title>FluX</title><title>XMark</title><title>Galax</title>"
		if res.body != want {
			t.Fatalf("tail-fed subscription got %q, want %q", res.body, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("subscription never finished")
	}
}
