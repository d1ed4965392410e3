package shard

import (
	"errors"
	"fmt"
	"io"
	"net/http"

	"flux"
	"flux/internal/stream"
)

// Streaming endpoints: the HTTP face of the live-ingestion subsystem
// (internal/stream). POST /ingest?doc= feeds a document stream — the
// request body is consumed chunk by chunk as it arrives, so a producer
// can hold the request open and trickle the document in. POST
// /subscribe?doc= registers a standing query; its results stream back
// in the response as matching subtrees complete, with execution stats
// in HTTP trailers once the stream ends. GET /streamz reports the
// hub's live state.

// failIngest answers an /ingest request with an error. Every /ingest
// error path must come through here: the producer may be holding the
// request body open, and without Connection: close the server drains
// the unread body — blocking on a silent producer — before it will
// send any response at all.
func failIngest(w http.ResponseWriter, msg string, status int) {
	w.Header().Set("Connection", "close")
	http.Error(w, msg, status)
}

// handleIngest consumes one live document stream from the request body.
// The response is written only when the stream ends: a JSON summary for
// a complete well-formed document, an error status otherwise. A client
// disconnect mid-body aborts the stream, failing its subscriptions.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		failIngest(w, "POST the document stream to /ingest?doc=name", http.StatusMethodNotAllowed)
		return
	}
	doc, err := resolveDoc(r, s.defaultDoc)
	if err != nil {
		failIngest(w, err.Error(), http.StatusBadRequest)
		return
	}
	ing, err := s.hub.StartIngest(r.Context(), doc)
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, flux.ErrDocNotFound):
			status = http.StatusNotFound
		case errors.Is(err, stream.ErrIngestActive):
			status = http.StatusConflict
		}
		failIngest(w, err.Error(), status)
		return
	}
	// Copy in a goroutine and watch the ingest's Dead channel alongside:
	// if the stream is unwound from elsewhere (hub shutdown) while the
	// producer is idle, the handler must not stay parked in a body read
	// that nothing will ever satisfy. Returning closes the request body,
	// which unblocks the copy goroutine.
	type copyOutcome struct {
		n   int64
		err error
	}
	copied := make(chan copyOutcome, 1)
	go func() {
		n, err := io.Copy(ing, r.Body)
		copied <- copyOutcome{n, err}
	}()
	var out copyOutcome
	select {
	case out = <-copied:
	case <-ing.Dead():
		failIngest(w, fmt.Sprintf("ingest aborted: %v", ing.Err()), http.StatusBadRequest)
		return
	}
	if out.err != nil {
		// The producer died mid-document (or a subscriber failure
		// propagated back): unwind the stream with the cause.
		err := ing.Abort(out.err)
		if r.Context().Err() != nil {
			return // client gone; no one to report to
		}
		failIngest(w, fmt.Sprintf("ingest failed after %d bytes: %v", out.n, err), http.StatusBadRequest)
		return
	}
	if err := ing.Close(); err != nil {
		failIngest(w, fmt.Sprintf("ingest failed after %d bytes: %v", out.n, err), http.StatusBadRequest)
		return
	}
	writeJSON(w, IngestSummary{Doc: doc, Bytes: out.n, Events: ing.Events()})
}

// IngestSummary is the /ingest success payload.
type IngestSummary struct {
	// Doc is the document the stream fed.
	Doc string `json:"doc"`
	// Bytes is the number of document bytes ingested.
	Bytes int64 `json:"bytes"`
	// Events is the number of SAX events the shared scan tokenized.
	Events int64 `json:"events"`
}

// handleSubscribe registers the posted query as a standing subscription
// and streams its results for as long as the subscription lives — into
// a live ingest if one is running, else parked until the document's
// next ingest begins. The 200 is committed as soon as the subscription
// is accepted; each delivery is then flushed to the client immediately,
// and final stats — plus any failure, in X-Flux-Error — ride in
// trailers. A subscriber that reads slower than the stream applies
// backpressure to the producer through its ring buffer; one that stops
// reading fails its own write after writeStall, which detaches it alone
// and lets the ingest and its sibling subscriptions resume.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST the query text to /subscribe?doc=name", http.StatusMethodNotAllowed)
		return
	}
	doc, err := resolveDoc(r, s.defaultDoc)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	body, status, err := ReadQueryBody(r)
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}

	w.Header().Set("Content-Type", "application/xml; charset=utf-8")
	w.Header().Set("Trailer", "X-Flux-Error, X-Flux-Peak-Buffer-Bytes, X-Flux-Tokens, X-Flux-Output-Bytes, X-Flux-First-Result-Ns")
	rw := newResultWriter(w, true)
	defer rw.arm() // a fresh bound for net/http's final write (see resultWriter)

	sub, err := s.hub.Subscribe(r.Context(), doc, string(body), rw, stream.PolicyBlock)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, flux.ErrDocNotFound) {
			status = http.StatusNotFound
		}
		http.Error(w, "subscribing: "+err.Error(), status)
		return
	}
	// The subscription stands; commit the response now so the client
	// learns it was accepted without waiting for the first result (the
	// document's ingest may not even have begun). From here the status
	// is fixed: later failures report through the X-Flux-Error trailer,
	// or — if results already streamed — an aborted connection, so the
	// truncation is visible at the transport, exactly as /query does.
	// A failed commit needs no handling here: the subscription's own
	// next write fails the same way.
	_ = rw.Flush()
	<-sub.Done()
	if err := sub.Err(); err != nil {
		if r.Context().Err() != nil {
			return // the subscriber disconnected; nothing to report
		}
		if rw.wrote() > 0 {
			panic(http.ErrAbortHandler)
		}
		w.Header().Set("X-Flux-Error", err.Error())
	}
	st := sub.Stats()
	w.Header().Set("X-Flux-Peak-Buffer-Bytes", fmt.Sprint(st.PeakBufferBytes))
	w.Header().Set("X-Flux-Tokens", fmt.Sprint(st.Tokens))
	w.Header().Set("X-Flux-Output-Bytes", fmt.Sprint(st.OutputBytes))
	w.Header().Set("X-Flux-First-Result-Ns", fmt.Sprint(int64(st.FirstResult)))
}

// handleStreamz reports the streaming hub's live state.
func (s *Server) handleStreamz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.hub.Stats())
}
