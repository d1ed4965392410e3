package shard

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"net/url"
	"strings"
	"testing"
	"time"

	"flux"
	"flux/internal/holdtest"
)

// The stall tests run a client that sends its request and then never
// reads, next to a sibling that shares the stalled client's scan. The
// sibling must finish within stallBound, its bytes equal to a static
// /query of the same query, because the stalled client's own write
// fails after writeStall and detaches it alone.
const stallBound = 3 * time.Second

// stallQuery pads each book of stallDoc with about 1.5 KB of literal
// text, for a result of about 27 MB. The stalled result must outgrow
// every loopback socket buffer on its path (through the router, two
// sockets whose autotuned buffers hold over 10 MB), or the scan would
// finish into them and the tests would pass without any write deadline;
// padding, rather than a larger document, keeps the scan cheap enough
// for the race detector.
var stallQuery = `<out> { for $b in /bib/book return <r>{$b}` + strings.Repeat("padding ", 192) + `</r> } </out>`

// stallDoc is a bib document of about 1 MB.
func stallDoc() string {
	var sb strings.Builder
	sb.WriteString("<bib>")
	for i := 0; sb.Len() < 1<<20; i++ {
		fmt.Fprintf(&sb, "<book><title>volume %07d</title><year>2004</year></book>", i)
	}
	sb.WriteString("</bib>")
	return sb.String()
}

// setWriteStall shortens writeStall for one test.
func setWriteStall(t *testing.T, d time.Duration) {
	t.Helper()
	old := writeStall
	writeStall = d
	t.Cleanup(func() { writeStall = old })
}

// stalledClient opens a raw TCP connection to base, with a small
// receive buffer, and sends one POST of body to path; it never reads
// the response. Closing the connection is registered with t.Cleanup, so
// a server that never gives up on the client is still unblocked when the
// test ends.
func stalledClient(t *testing.T, base, path, body string) {
	t.Helper()
	u, err := url.Parse(base)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", u.Host)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	req := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: text/plain\r\nContent-Length: %d\r\n\r\n%s",
		path, u.Host, len(body), body)
	if _, err := io.WriteString(conn, req); err != nil {
		t.Fatal(err)
	}
}

// postResult is what one POST came back with.
type postResult struct {
	status int
	body   string
	err    error
}

// postAsync posts body to url and reports the whole response on the
// returned channel.
func postAsync(url, body string) <-chan postResult {
	ch := make(chan postResult, 1)
	go func() {
		resp, err := http.Post(url, "text/plain", strings.NewReader(body))
		if err != nil {
			ch <- postResult{err: err}
			return
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		ch <- postResult{status: resp.StatusCode, body: string(got), err: err}
	}()
	return ch
}

// awaitSibling waits up to stallBound for the sibling's response.
func awaitSibling(t *testing.T, ch <-chan postResult) postResult {
	t.Helper()
	select {
	case res := <-ch:
		if res.err != nil || res.status != http.StatusOK {
			t.Fatalf("sibling: status %d, err %v", res.status, res.err)
		}
		return res
	case <-time.After(stallBound):
		t.Fatalf("sibling of a stalled client still running after %s", stallBound)
		return postResult{}
	}
}

// checkOracle compares the sibling's bytes with a static /query of
// query at url.
func checkOracle(t *testing.T, got, url, query string) {
	t.Helper()
	resp, static := post(t, url, query)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("static query: status %d", resp.StatusCode)
	}
	if got != static {
		t.Fatalf("sibling returned %d bytes, static oracle %d", len(got), len(static))
	}
}

// waitQuiet polls a worker until nothing is admitted or queued in its
// catalog and its hub has no live ingest or parked subscription: the
// stalled client left nothing behind.
func waitQuiet(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var stats flux.ServerStats
		getJSON(t, base+"/stats", &stats)
		var hub struct {
			Active  []string `json:"active_ingests"`
			Waiting int      `json:"waiting_subscriptions"`
		}
		getJSON(t, base+"/streamz", &hub)
		adm := stats.Admission
		if adm.Active == 0 && adm.Waiting == 0 && len(hub.Active) == 0 && hub.Waiting == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never went quiet: admission %+v, streamz %+v", adm, hub)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
}

// TestSubscribeStallDetachesAlone: a /subscribe client that never reads
// fills its ring, which parks the shared scan and the producer. After
// writeStall its write fails and detaches it; the ingest and the
// reading sibling subscription then run to the end.
func TestSubscribeStallDetachesAlone(t *testing.T) {
	setWriteStall(t, 500*time.Millisecond)
	doc := stallDoc()
	_, ts := newStreamWorker(t, doc)

	stalledClient(t, ts.URL, "/subscribe?doc=live", stallQuery)
	waitParked(t, ts.URL, 1)
	sibling := subscribeAsync(t, ts.URL, "live", stallQuery)
	waitParked(t, ts.URL, 2)

	select {
	case res := <-postAsync(ts.URL+"/ingest?doc=live", doc):
		if res.err != nil || res.status != http.StatusOK {
			t.Fatalf("ingest: status %d (%s), err %v", res.status, res.body, res.err)
		}
	case <-time.After(stallBound):
		t.Fatalf("ingest still running after %s behind a stalled subscriber", stallBound)
	}

	var res subscribeResult
	select {
	case res = <-sibling:
	case <-time.After(stallBound):
		t.Fatalf("sibling subscription still open %s after the ingest ended", stallBound)
	}
	if res.err != nil || res.status != http.StatusOK || res.trailer.Get("X-Flux-Error") != "" {
		t.Fatalf("sibling: status %d, err %v, X-Flux-Error %q", res.status, res.err, res.trailer.Get("X-Flux-Error"))
	}
	checkOracle(t, res.body, ts.URL+"/query?doc=static", stallQuery)
	waitQuiet(t, ts.URL)
}

// TestQueryStallDetachesAlone: a /query client that never reads, batched
// with a reading sibling on one shared scan, fails its own write after
// writeStall and is detached; the sibling streams to the end.
func TestQueryStallDetachesAlone(t *testing.T) {
	setWriteStall(t, 500*time.Millisecond)
	specs := writeCorpus(t, map[string]string{"big": stallDoc()})
	cat := flux.NewCatalog(flux.CatalogOptions{})
	if err := cat.Add("big", specs[0].DocPath, testDTD); err != nil {
		t.Fatal(err)
	}
	ex, err := flux.NewExecutor(cat, flux.ExecutorOptions{Window: time.Second, MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ex, ServerOptions{ShardID: -1})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		srv.Hub().Close()
		ts.Close()
	})
	release := holdtest.Hold(t, cat.Add, ex.ExecuteContext)

	stalledClient(t, ts.URL, "/query?doc=big", stallQuery)
	sibling := postAsync(ts.URL+"/query?doc=big", stallQuery)
	res := awaitSibling(t, sibling)
	if st := ex.Stats()["big"]; st.PeakBatch != 2 || st.Scans != 1 {
		t.Fatalf("stalled client and sibling did not share a scan: %+v", st)
	}
	release()
	checkOracle(t, res.body, ts.URL+"/query?doc=big", stallQuery)
	waitQuiet(t, ts.URL)
}

// TestRouterStallDetachesAlone: the same stalled /query client through
// shard.Router and two embedded workers. The router's copy to the client
// fails after writeStall, which closes its connection to the worker and
// detaches the query there; the batch sibling streams to the end.
func TestRouterStallDetachesAlone(t *testing.T) {
	setWriteStall(t, 500*time.Millisecond)
	specs := writeCorpus(t, map[string]string{"big": stallDoc(), "beta": testDocs["beta"]})
	m, err := NewMap([]string{"big", "beta"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ApplyOverrides("big: 0\nbeta: 1\n"); err != nil {
		t.Fatal(err)
	}
	shards, err := SpawnEmbedded(m, specs, EmbeddedOptions{
		Executor: flux.ExecutorOptions{Window: time.Second, MaxBatch: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(RouterOptions{Map: m, Shards: Addrs(shards), HealthInterval: 20 * time.Millisecond})
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
	worker := shards[0].worker
	release := holdtest.Hold(t, worker.Catalog().Add, worker.Executor().ExecuteContext)

	stalledClient(t, ts.URL, "/query?doc=big", stallQuery)
	sibling := postAsync(ts.URL+"/query?doc=big", stallQuery)
	res := awaitSibling(t, sibling)
	if st := worker.Executor().Stats()["big"]; st.PeakBatch != 2 || st.Scans != 1 {
		t.Fatalf("stalled client and sibling did not share a scan: %+v", st)
	}
	release()
	checkOracle(t, res.body, ts.URL+"/query?doc=big", stallQuery)
	waitQuiet(t, shards[0].Addr)
}

// TestStallIdleSubscriptionEndsWhole: a result that idles longer than
// writeStall is not a stalled client. Two unwrapped subscriptions write
// nothing at the end of the stream: one matches only the first book,
// and the ingest then idles for 3× writeStall; the other matches
// nothing and stays parked for 3× writeStall before the ingest begins.
// Both subscribers read every byte, so both must get a whole body with
// its trailers when the ingest closes, not an unexpected EOF from a
// final write that ran under a deadline long past.
func TestStallIdleSubscriptionEndsWhole(t *testing.T) {
	setWriteStall(t, 100*time.Millisecond)
	_, ts := newStreamWorker(t, testDocs["alpha"])

	const firstBook = `<bib><book><title>FluX</title><year>2004</year></book>`
	early := make(chan subscribeResult, 1)
	sawFirst := make(chan struct{})
	go func() {
		resp, err := http.Post(ts.URL+"/subscribe?doc=live", "text/plain",
			strings.NewReader(`{ for $b in /bib/book return {$b/title} }`))
		if err != nil {
			early <- subscribeResult{err: err}
			close(sawFirst)
			return
		}
		defer resp.Body.Close()
		var got []byte
		buf := make([]byte, 512)
		for !strings.Contains(string(got), "</title>") {
			n, err := resp.Body.Read(buf)
			got = append(got, buf[:n]...)
			if err != nil {
				break
			}
		}
		close(sawFirst)
		rest, err := io.ReadAll(resp.Body)
		early <- subscribeResult{status: resp.StatusCode, body: string(got) + string(rest), trailer: resp.Trailer, err: err}
	}()
	none := subscribeAsync(t, ts.URL, "live", `{ for $b in /bib/book where $b/year = '1900' return {$b/title} }`)
	waitParked(t, ts.URL, 2)
	time.Sleep(3 * writeStall)

	pr, pw := io.Pipe()
	ingest := make(chan postResult, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/ingest?doc=live", "application/xml", pr)
		if err != nil {
			ingest <- postResult{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		ingest <- postResult{status: resp.StatusCode, body: string(body), err: err}
	}()
	if _, err := io.WriteString(pw, firstBook); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sawFirst:
	case <-time.After(5 * time.Second):
		t.Fatal("the first book's result never reached its subscriber")
	}
	time.Sleep(3 * writeStall)
	if _, err := io.WriteString(pw, `</bib>`); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if res := <-ingest; res.err != nil || res.status != http.StatusOK {
		t.Fatalf("ingest: status %d (%s), err %v", res.status, res.body, res.err)
	}

	for name, tc := range map[string]struct {
		ch   <-chan subscribeResult
		want string
	}{
		"early": {early, "<title>FluX</title>"},
		"none":  {none, ""},
	} {
		var res subscribeResult
		select {
		case res = <-tc.ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: subscription still open after the ingest ended", name)
		}
		if res.err != nil || res.status != http.StatusOK {
			t.Fatalf("%s: status %d, err %v", name, res.status, res.err)
		}
		if res.body != tc.want {
			t.Fatalf("%s: body %q, want %q", name, res.body, tc.want)
		}
		if got := res.trailer.Get("X-Flux-Output-Bytes"); got != fmt.Sprint(len(tc.want)) {
			t.Fatalf("%s: X-Flux-Output-Bytes %q, want %d", name, got, len(tc.want))
		}
	}
	waitQuiet(t, ts.URL)
}

// TestStallDeadlineClearedOnKeepAlive: the write deadline a response
// armed does not outlive its request — net/http clears it after the
// final flush. A second request on the same kept-alive connection, sent
// more than writeStall after the first response, still gets a 200, from
// a worker directly and through the router.
func TestStallDeadlineClearedOnKeepAlive(t *testing.T) {
	setWriteStall(t, 100*time.Millisecond)
	_, _, tier := spawnTier(t, testDocs, 2, "")
	_, single := newStreamWorker(t, testDocs["alpha"])
	for name, url := range map[string]string{
		"worker": single.URL + "/query?doc=static",
		"router": tier.URL + "/query?doc=alpha",
	} {
		t.Run(name, func(t *testing.T) {
			client := &http.Client{Transport: &http.Transport{}}
			defer client.CloseIdleConnections()
			for i := 0; i < 2; i++ {
				if i > 0 {
					time.Sleep(3 * writeStall)
				}
				var reused bool
				trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused }}
				req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(testQueries[0]))
				if err != nil {
					t.Fatal(err)
				}
				req = req.WithContext(httptrace.WithClientTrace(req.Context(), trace))
				resp, err := client.Do(req)
				if err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("request %d: status %d, err %v (%s)", i, resp.StatusCode, err, body)
				}
				if i > 0 && !reused {
					t.Fatal("second request did not reuse the kept-alive connection")
				}
			}
		})
	}
}
