package shard

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"flux"
)

// newStreamWorker builds a worker over one stream-backed document plus
// one file-backed copy of the same content — the static oracle — and
// serves it on an httptest server.
func newStreamWorker(t *testing.T, doc string) (*Server, *httptest.Server) {
	t.Helper()
	cat := flux.NewCatalog(flux.CatalogOptions{})
	if err := cat.AddStream("live", testDTD); err != nil {
		t.Fatal(err)
	}
	specs := writeCorpus(t, map[string]string{"static": doc})
	if err := cat.Add("static", specs[0].DocPath, testDTD); err != nil {
		t.Fatal(err)
	}
	ex, err := flux.NewExecutor(cat, flux.ExecutorOptions{Window: time.Millisecond, MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ex, ServerOptions{ShardID: -1})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		srv.Hub().Close()
		ts.Close()
	})
	return srv, ts
}

// subscribeResult is what one /subscribe request came back with.
type subscribeResult struct {
	status  int
	body    string
	trailer http.Header
	err     error
}

// subscribeAsync opens a /subscribe request and reports its final
// outcome on the returned channel.
func subscribeAsync(t *testing.T, base, doc, query string) <-chan subscribeResult {
	t.Helper()
	ch := make(chan subscribeResult, 1)
	url := base + "/subscribe?doc=" + doc
	go func() {
		resp, err := http.Post(url, "text/plain", strings.NewReader(query))
		if err != nil {
			ch <- subscribeResult{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		ch <- subscribeResult{status: resp.StatusCode, body: string(body), trailer: resp.Trailer, err: err}
	}()
	return ch
}

// chunkedIngest streams doc to /ingest in small chunks through a pipe,
// so the server sees a genuinely incremental body.
func chunkedIngest(t *testing.T, base, docName, doc string, chunk int) IngestSummary {
	t.Helper()
	pr, pw := io.Pipe()
	go func() {
		for i := 0; i < len(doc); i += chunk {
			end := min(i+chunk, len(doc))
			if _, err := pw.Write([]byte(doc[i:end])); err != nil {
				pw.CloseWithError(err)
				return
			}
		}
		pw.Close()
	}()
	req, err := http.NewRequest(http.MethodPost, base+"/ingest?doc="+docName, pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/ingest status %d: %s", resp.StatusCode, body)
	}
	var sum IngestSummary
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatalf("ingest summary %q: %v", body, err)
	}
	return sum
}

// TestServerIngestSubscribeMatchesQuery is the HTTP-level acceptance
// check: a document ingested in chunks with three standing
// subscriptions produces byte-identical per-query responses to /query
// over the same document served statically — trailers included.
func TestServerIngestSubscribeMatchesQuery(t *testing.T) {
	doc := testDocs["gamma"]
	_, ts := newStreamWorker(t, doc)
	queries := []string{
		`<out> { for $b in /bib/book return {$b/title} } </out>`,
		`<out> { for $b in /bib/book where $b/year = '2004' return {$b} } </out>`,
		`{ for $b in /bib/book return {$b/year} }`,
	}
	var chans []<-chan subscribeResult
	for _, q := range queries {
		chans = append(chans, subscribeAsync(t, ts.URL, "live", q))
	}
	// The subscriptions must be standing before the stream begins;
	// /streamz reports them parked.
	waitParked(t, ts.URL, len(queries))

	sum := chunkedIngest(t, ts.URL, "live", doc, 7)
	if sum.Bytes != int64(len(doc)) || sum.Events == 0 {
		t.Fatalf("ingest summary = %+v", sum)
	}

	for i, ch := range chans {
		var res subscribeResult
		select {
		case res = <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("subscription %d never finished", i)
		}
		if res.err != nil || res.status != http.StatusOK {
			t.Fatalf("subscription %d: status %d, err %v", i, res.status, res.err)
		}
		resp, static := post(t, ts.URL+"/query?doc=static", queries[i])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("static query %d: status %d", i, resp.StatusCode)
		}
		if res.body != static {
			t.Fatalf("query %d streamed %q, static %q", i, res.body, static)
		}
		if got, want := res.trailer.Get("X-Flux-Peak-Buffer-Bytes"), resp.Trailer.Get("X-Flux-Peak-Buffer-Bytes"); got != want {
			t.Fatalf("query %d peak trailer %q, static %q", i, got, want)
		}
	}
}

// waitParked polls /streamz until n subscriptions are parked.
func waitParked(t *testing.T, base string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/streamz")
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
		if st.Waiting >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d subscriptions parked, want %d", st.Waiting, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitActive polls /streamz until an ingest is live for doc. Writing
// the first body bytes client-side does not mean the server has started
// the ingest yet — tests that act on the live ingest must wait for it.
func waitActive(t *testing.T, base, doc string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/streamz")
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Active []string `json:"active_ingests"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range st.Active {
			if d == doc {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingest for %q never became active (have %v)", doc, st.Active)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServerSubscribeReceivesBeforeIngestEnds: the subscriber's HTTP
// response carries results while the ingest request is still open.
func TestServerSubscribeReceivesBeforeIngestEnds(t *testing.T) {
	doc := testDocs["alpha"]
	_, ts := newStreamWorker(t, doc)

	// Open the subscription and read its response incrementally.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/subscribe?doc=live", strings.NewReader(`{ for $b in /bib/book return {$b/title} }`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	waitParked(t, ts.URL, 1)

	// Hold the ingest open: send everything but the closing root tag.
	pr, pw := io.Pipe()
	ingestDone := make(chan error, 1)
	go func() {
		r, err := http.Post(ts.URL+"/ingest?doc=live", "application/xml", pr)
		if r != nil {
			r.Body.Close()
		}
		ingestDone <- err
	}()
	head := doc[:len(doc)-len("</bib>")]
	if _, err := pw.Write([]byte(head)); err != nil {
		t.Fatal(err)
	}

	// The two complete books must arrive now, stream still open.
	want := "<title>FluX</title><title>XMark</title>"
	buf := make([]byte, len(want))
	if _, err := io.ReadFull(resp.Body, buf); err != nil {
		t.Fatalf("reading mid-stream results: %v", err)
	}
	if string(buf) != want {
		t.Fatalf("mid-stream results %q, want %q", buf, want)
	}
	select {
	case err := <-ingestDone:
		t.Fatalf("ingest finished before its body was complete (err=%v)", err)
	default:
	}

	if _, err := pw.Write([]byte("</bib>")); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-ingestDone; err != nil {
		t.Fatal(err)
	}
	rest, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("unexpected trailing output %q", rest)
	}
}

// TestServerIngestConflictAndErrors: the HTTP surface maps streaming
// failures onto status codes — 409 for a second concurrent ingest, 404
// for an unknown document, 400 for a malformed stream.
func TestServerIngestConflictAndErrors(t *testing.T) {
	_, ts := newStreamWorker(t, testDocs["alpha"])

	pr, pw := io.Pipe()
	first := make(chan struct{})
	var resp1 *http.Response
	var err1 error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp1, err1 = http.Post(ts.URL+"/ingest?doc=live", "application/xml", pr)
		close(first)
	}()
	if _, err := pw.Write([]byte(`<bib>`)); err != nil {
		t.Fatal(err)
	}
	waitActive(t, ts.URL, "live")

	resp, body := post(t, ts.URL+"/ingest?doc=live", `<bib></bib>`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second concurrent ingest: status %d (%s), want 409", resp.StatusCode, body)
	}
	pw.Close() // truncated document: first ingest fails with 400
	wg.Wait()
	if err1 != nil {
		t.Fatal(err1)
	}
	defer resp1.Body.Close()
	if resp1.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated ingest: status %d, want 400", resp1.StatusCode)
	}

	resp, body = post(t, ts.URL+"/ingest?doc=nosuch", `<bib></bib>`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown doc ingest: status %d (%s), want 404", resp.StatusCode, body)
	}
	resp, body = post(t, ts.URL+"/subscribe?doc=nosuch", `{ for $b in /bib/book return {$b} }`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown doc subscribe: status %d (%s), want 404", resp.StatusCode, body)
	}

	// After the failed and rejected attempts, a clean ingest succeeds.
	sum := chunkedIngest(t, ts.URL, "live", testDocs["alpha"], 64)
	if sum.Bytes == 0 {
		t.Fatalf("recovery ingest summary = %+v", sum)
	}
}

// TestServerShutdownWithOpenStreams: closing the hub (the server's
// shutdown path) while an ingest and a subscription are live unwinds
// both HTTP requests instead of leaving them hanging.
func TestServerShutdownWithOpenStreams(t *testing.T) {
	srv, ts := newStreamWorker(t, testDocs["alpha"])

	subCh := subscribeAsync(t, ts.URL, "live", `{ for $b in /bib/book return {$b/title} }`)
	waitParked(t, ts.URL, 1)

	pr, pw := io.Pipe()
	ingestDone := make(chan error, 1)
	go func() {
		r, err := http.Post(ts.URL+"/ingest?doc=live", "application/xml", pr)
		if r != nil {
			r.Body.Close()
		}
		ingestDone <- err
	}()
	if _, err := pw.Write([]byte(`<bib><book><title>T</title>`)); err != nil {
		t.Fatal(err)
	}
	waitActive(t, ts.URL, "live")

	srv.Hub().Close()

	for name, ch := range map[string]<-chan error{"ingest": ingestDone} {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s request still open after hub close", name)
		}
	}
	select {
	case res := <-subCh:
		// The ingested prefix contains a complete <title>, so the
		// subscription may have streamed a result before the close. If
		// it had, the server aborts the connection to mark the
		// truncation (a transport error here); if not, the failure
		// rides in the X-Flux-Error trailer under the committed 200.
		if res.err == nil {
			if e := res.trailer.Get("X-Flux-Error"); !strings.Contains(e, "hub closed") {
				t.Fatalf("clean response but X-Flux-Error trailer = %q, want hub-closed failure", e)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("subscription request still open after hub close")
	}
	pw.Close()
}

// TestServerRoundTrip exercises a second ingest after the first on the
// same worker, confirming streams are repeatable per document.
func TestServerRoundTrip(t *testing.T) {
	_, ts := newStreamWorker(t, testDocs["alpha"])
	for round := 0; round < 2; round++ {
		ch := subscribeAsync(t, ts.URL, "live", `{ for $b in /bib/book return {$b/title} }`)
		waitParked(t, ts.URL, 1)
		chunkedIngest(t, ts.URL, "live", testDocs["alpha"], 16)
		res := <-ch
		if res.err != nil || res.status != http.StatusOK {
			t.Fatalf("round %d: status %d, err %v", round, res.status, res.err)
		}
		if want := "<title>FluX</title><title>XMark</title>"; res.body != want {
			t.Fatalf("round %d: body %q, want %q", round, res.body, want)
		}
	}
}
