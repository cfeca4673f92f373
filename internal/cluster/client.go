package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"hetsyslog/internal/store"
)

// NodeClient speaks the store's HTTP API to one cluster node: index
// batches in the binary doc codec, reads in the binary read codec (both
// internal/store), and GET /stats in JSON. All calls honor the passed
// context on top of the client's own timeout; a non-2xx status or
// transport failure returns an error carrying the node URL so breaker
// trips and failovers are attributable in logs. Response bodies are
// always read to EOF — with or without a decode target — so the
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

// do issues one request and hands the response body to read (read == nil:
// the body is only drained). payload may be nil for GETs.
func (c *NodeClient) do(ctx context.Context, method, path, contentType string, payload []byte, read func(io.Reader) error) error {
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
	if read != nil {
		if err := read(resp.Body); err != nil {
			return fmt.Errorf("cluster: node %s: read %s: %w", c.BaseURL, path, err)
		}
	}
	// Whatever read left (a JSON decoder stops before the encoder's
	// newline) must still be consumed or the transport abandons the
	// connection instead of pooling it.
	drain(resp.Body)
	return nil
}

// drain consumes the remainder of a response body (bounded: a well-formed
// store response never approaches the cap) so the connection is reusable.
func drain(r io.Reader) {
	_, _ = io.Copy(io.Discard, io.LimitReader(r, 1<<22))
}

// IndexBatchPayload bulk-indexes a batch already encoded in the binary
// doc codec (store.DocsContentType) via POST /index/batch.
func (c *NodeClient) IndexBatchPayload(ctx context.Context, payload []byte) error {
	return c.do(ctx, http.MethodPost, "/index/batch", store.DocsContentType, payload, nil)
}

// answerBufPool recycles the buffers read answers are received into;
// store.DecodeReadAnswer copies the strings out, so a buffer is free again
// once the answer is decoded. A buffer over maxPooledAnswer (a broad
// search's hits) is left to the collector.
var answerBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledAnswer = 1 << 20

// read sends one binary read request (store.ReadContentType) to POST /read
// and decodes the node's binary answer.
func (c *NodeClient) read(ctx context.Context, req store.ReadRequest) (store.ReadAnswer, error) {
	buf := answerBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledAnswer {
			answerBufPool.Put(buf)
		}
	}()
	err := c.do(ctx, http.MethodPost, "/read", store.ReadContentType, req.Append(nil), func(r io.Reader) error {
		_, err := buf.ReadFrom(r)
		return err
	})
	if err != nil {
		return store.ReadAnswer{}, err
	}
	ans, err := store.DecodeReadAnswer(req.Op, buf.Bytes())
	if err != nil {
		return store.ReadAnswer{}, fmt.Errorf("cluster: node %s: decode /read: %w", c.BaseURL, err)
	}
	return ans, nil
}

// Search runs a query on the node: its top size hits (negative =
// unlimited), which the coordinator merges and truncates again.
func (c *NodeClient) Search(ctx context.Context, q store.Query, size int, sortAsc bool) ([]store.Hit, error) {
	ans, err := c.read(ctx, store.ReadRequest{Op: store.ReadSearch, Query: q, Size: size, SortAsc: sortAsc})
	return ans.Hits, err
}

// Count returns the node's matching-document count.
func (c *NodeClient) Count(ctx context.Context, q store.Query) (int, error) {
	ans, err := c.read(ctx, store.ReadRequest{Op: store.ReadCount, Query: q})
	return ans.Count, err
}

// DateHistogramSparse returns the node's non-empty histogram buckets —
// the merge-friendly form (summed by Start and gap-filled coordinator-
// side, under the same MaxHistogramBuckets clamp as a single store).
func (c *NodeClient) DateHistogramSparse(ctx context.Context, q store.Query, interval time.Duration) ([]store.HistogramBucket, error) {
	ans, err := c.read(ctx, store.ReadRequest{Op: store.ReadHist, Query: q, Interval: interval})
	return ans.Buckets, err
}

// Terms returns the node's terms aggregation (size 0 = unlimited, which
// the coordinator asks for so that its merged top-k is exact, not an
// approximation from per-node truncations).
func (c *NodeClient) Terms(ctx context.Context, q store.Query, field string, size int) ([]store.TermBucket, error) {
	ans, err := c.read(ctx, store.ReadRequest{Op: store.ReadTerms, Query: q, Field: field, Size: size})
	return ans.Terms, err
}

// Stats returns the node's store stats via GET /stats.
func (c *NodeClient) Stats(ctx context.Context) (store.Stats, error) {
	var out store.Stats
	err := c.do(ctx, http.MethodGet, "/stats", "", nil, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&out)
	})
	return out, err
}
