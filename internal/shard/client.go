package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/url"
	"strings"

	"flux"
)

// Client talks to one shard worker's HTTP surface: health and identity
// probes, typed /stats and /docs fetches, and raw /query passthrough
// for the router to stream from.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the worker at baseURL (scheme://host:port,
// trailing slash tolerated). A nil hc uses http.DefaultClient.
func NewClient(baseURL string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: hc}
}

// Base returns the worker's base URL.
func (c *Client) Base() string { return c.base }

// Identity fetches the worker's /shardz self-description.
func (c *Client) Identity(ctx context.Context) (Identity, error) {
	var id Identity
	err := c.getJSON(ctx, "/shardz", &id)
	return id, err
}

// Stats fetches the worker's typed /stats snapshot.
func (c *Client) Stats(ctx context.Context) (flux.ServerStats, error) {
	var st flux.ServerStats
	err := c.getJSON(ctx, "/stats", &st)
	return st, err
}

// Docs fetches the worker's /docs listing.
func (c *Client) Docs(ctx context.Context) ([]flux.DocInfo, error) {
	var infos []flux.DocInfo
	err := c.getJSON(ctx, "/docs", &infos)
	return infos, err
}

// Query posts queryText against doc and returns the raw response for
// the caller to stream — body, status and trailers untouched, so a
// router can pass everything through. Transport failures are errors; an
// HTTP error status is not (the caller forwards it). The caller owns
// resp.Body.
func (c *Client) Query(ctx context.Context, doc, queryText string) (*http.Response, error) {
	u := c.base + "/query"
	if doc != "" {
		u += "?doc=" + url.QueryEscape(doc)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, strings.NewReader(queryText))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "text/plain; charset=utf-8")
	return c.hc.Do(req)
}

// Fetch streams a registered document's raw bytes (part "doc") or its
// DTD text (part "dtd") from the worker's /admin/fetch endpoint — the
// source half of a migration copy. The caller owns the returned reader.
// The worker must run with its admin surface enabled.
func (c *Client) Fetch(ctx context.Context, doc, part string) (io.ReadCloser, error) {
	u := c.base + "/admin/fetch?doc=" + url.QueryEscape(doc)
	if part != "" {
		u += "&part=" + url.QueryEscape(part)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer drain(resp)
		return nil, fmt.Errorf("shard: fetch %q (%s) from %s: %s", doc, part, c.base, readError(resp))
	}
	return resp.Body, nil
}

// ErrAlreadyInstalled is returned by Install when the target worker
// already serves a document under the name — how a retried migration
// detects a leftover copy to replace.
var ErrAlreadyInstalled = fmt.Errorf("shard: document already installed")

// Install ships a document copy to the worker: the XML bytes and DTD
// text stream as multipart/form-data into /admin/install, and the
// worker registers the copy into its catalog under doc. The worker must
// run with its admin surface enabled.
func (c *Client) Install(ctx context.Context, doc string, docData, dtdData io.Reader) error {
	pr, pw := io.Pipe()
	mw := multipart.NewWriter(pw)
	go func() {
		err := func() error {
			part, err := mw.CreateFormFile("doc", doc+".xml")
			if err != nil {
				return err
			}
			if _, err := io.Copy(part, docData); err != nil {
				return err
			}
			part, err = mw.CreateFormFile("dtd", doc+".dtd")
			if err != nil {
				return err
			}
			if _, err := io.Copy(part, dtdData); err != nil {
				return err
			}
			return mw.Close()
		}()
		pw.CloseWithError(err)
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/admin/install?doc="+url.QueryEscape(doc), pr)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", mw.FormDataContentType())
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		return nil
	case http.StatusConflict:
		return fmt.Errorf("%w: %q on %s", ErrAlreadyInstalled, doc, c.base)
	default:
		return fmt.Errorf("shard: install %q on %s: %s", doc, c.base, readError(resp))
	}
}

// Retire unregisters a document from the worker — the last step of a
// migration on the source. The worker must run with its admin surface
// enabled.
func (c *Client) Retire(ctx context.Context, doc string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/admin/retire?doc="+url.QueryEscape(doc), nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("shard: retire %q on %s: %s", doc, c.base, readError(resp))
	}
	return nil
}

// readError summarizes a non-200 response for an error message: the
// status plus the first line of the body, which our handlers fill with
// the cause.
func readError(resp *http.Response) string {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	text := strings.TrimSpace(string(body))
	if text == "" {
		return fmt.Sprintf("status %d", resp.StatusCode)
	}
	if i := strings.IndexByte(text, '\n'); i >= 0 {
		text = text[:i]
	}
	return fmt.Sprintf("status %d: %s", resp.StatusCode, text)
}

// getJSON fetches path and decodes the JSON payload into v.
func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("shard: %s%s answered %d", c.base, path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// drain consumes and closes a response body so the transport can reuse
// the connection.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
