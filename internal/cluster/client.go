package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"hetsyslog/internal/store"
)

// NodeClient speaks the store's HTTP API to one cluster node. All calls
// honor the passed context on top of the client's own timeout; a non-2xx
// status or transport failure returns an error carrying the node URL so
// breaker trips and failovers are attributable in logs. Response bodies
// are always read to EOF — with or without a decode target — so the
// keep-alive connection returns to the transport's idle pool instead of
// being torn down after every call.
type NodeClient struct {
	// BaseURL is the node's HTTP root, e.g. "http://10.0.0.1:9200".
	BaseURL string
	// HTTP is the underlying client. Routers and coordinators share one
	// tuned client (see newHTTPClient) across all their NodeClients so the
	// keep-alive pool spans the whole fan-out.
	HTTP *http.Client
}

// maxIdleConnsPerHost sizes the shared HTTP transport's keep-alive pool
// per node. Concurrent fan-out opens one connection per in-flight
// request; idle conns below this bound are reused instead of re-dialed.
const maxIdleConnsPerHost = 32

// newHTTPClient builds the shared tuned client for a router or
// coordinator: keep-alives sized for concurrent per-node fan-out, so
// steady-state batches ride pooled connections instead of re-dialing.
func newHTTPClient(timeout time.Duration) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = maxIdleConnsPerHost
	if tr.MaxIdleConns < maxIdleConnsPerHost*4 {
		tr.MaxIdleConns = maxIdleConnsPerHost * 4
	}
	return &http.Client{Transport: tr, Timeout: timeout}
}

// statusError is a non-2xx response, preserving the code so callers can
// distinguish a refused payload (see rejected) from node failure.
type statusError struct {
	url, path string
	status    int
	msg       string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("cluster: node %s: %s: HTTP %d: %s", e.url, e.path, e.status, e.msg)
}

// rejected reports whether err is a node refusing the payload itself —
// 400 (undecodable) or 415 (a doc codec version it does not speak) —
// rather than failing: the node is up, and re-sending the same bytes
// can never succeed.
func rejected(err error) bool {
	var se *statusError
	return errors.As(err, &se) &&
		(se.status == http.StatusBadRequest || se.status == http.StatusUnsupportedMediaType)
}

// do issues one request and decodes the JSON response into out (out ==
// nil: the body is drained and discarded). payload may be nil for GETs.
func (c *NodeClient) do(ctx context.Context, method, path, contentType string, payload []byte, out any) error {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return fmt.Errorf("cluster: node %s: %w", c.BaseURL, err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return fmt.Errorf("cluster: node %s: %s: %w", c.BaseURL, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		drain(resp.Body)
		return &statusError{url: c.BaseURL, path: path, status: resp.StatusCode,
			msg: string(bytes.TrimSpace(msg))}
	}
	if out == nil {
		drain(resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("cluster: node %s: decode %s: %w", c.BaseURL, path, err)
	}
	// The decoder stops at the end of the first JSON value; whatever
	// trails it (the encoder's newline) must still be consumed or the
	// transport abandons the connection instead of pooling it.
	drain(resp.Body)
	return nil
}

// drain consumes the remainder of a response body (bounded: a well-formed
// store response never approaches the cap) so the connection is reusable.
func drain(r io.Reader) {
	_, _ = io.Copy(io.Discard, io.LimitReader(r, 1<<22))
}

// post sends body as JSON to path and decodes the JSON response into out
// (skipped, but drained, when out is nil).
func (c *NodeClient) post(ctx context.Context, path string, body, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("cluster: node %s: encode %s: %w", c.BaseURL, path, err)
	}
	return c.do(ctx, http.MethodPost, path, "application/json", payload, out)
}

// get fetches path and decodes the JSON response into out.
func (c *NodeClient) get(ctx context.Context, path string, out any) error {
	return c.do(ctx, http.MethodGet, path, "", nil, out)
}

// IndexBatchPayload bulk-indexes a batch already encoded in the binary
// doc codec (store.DocsContentType) via POST /index/batch.
func (c *NodeClient) IndexBatchPayload(ctx context.Context, payload []byte) error {
	return c.do(ctx, http.MethodPost, "/index/batch", store.DocsContentType, payload, nil)
}

// Search runs a query on the node: its top size hits (negative =
// unlimited), which the coordinator merges and truncates again.
func (c *NodeClient) Search(ctx context.Context, q json.RawMessage, size int, sortAsc bool) ([]store.Hit, error) {
	var out store.SearchResult
	err := c.post(ctx, "/search", store.SearchBody{Query: q, Size: size, SortAsc: sortAsc}, &out)
	return out.Hits, err
}

// Count returns the node's matching-document count.
func (c *NodeClient) Count(ctx context.Context, q json.RawMessage) (int, error) {
	var out store.CountResult
	err := c.post(ctx, "/count", store.CountBody{Query: q}, &out)
	return out.Count, err
}

// DateHistogramSparse returns the node's non-empty histogram buckets —
// the merge-friendly form (summed by Start and gap-filled coordinator-
// side, under the same MaxHistogramBuckets clamp as a single store).
func (c *NodeClient) DateHistogramSparse(ctx context.Context, q json.RawMessage, interval time.Duration) ([]store.HistogramBucket, error) {
	var out []store.HistogramBucket
	err := c.post(ctx, "/agg/datehist", store.DateHistBody{Query: q, Interval: interval.String(), Sparse: true}, &out)
	return out, err
}

// Terms returns the node's full terms aggregation (size 0 = unlimited,
// so the coordinator's merged top-k is exact, not an approximation from
// per-node truncations).
func (c *NodeClient) Terms(ctx context.Context, q json.RawMessage, field string, size int) ([]store.TermBucket, error) {
	var out []store.TermBucket
	err := c.post(ctx, "/agg/terms", store.TermsBody{Query: q, Field: field, Size: size}, &out)
	return out, err
}

// Stats returns the node's store stats via GET /stats.
func (c *NodeClient) Stats(ctx context.Context) (store.Stats, error) {
	var out store.Stats
	err := c.get(ctx, "/stats", &out)
	return out, err
}
