package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The JSON query DSL mirrors OpenSearch's shape:
//
//	{"term":   {"field": "hostname", "value": "cn101"}}
//	{"match":  {"text": "temperature throttled"}}
//	{"range":  {"from": "2023-07-01T00:00:00Z", "to": "..."}}
//	{"bool":   {"must": [...], "should": [...], "must_not": [...]}}
//	{"match_all": {}}
type jsonQuery struct {
	MatchAll *struct{}  `json:"match_all,omitempty"`
	Term     *jsonTerm  `json:"term,omitempty"`
	Match    *jsonMatch `json:"match,omitempty"`
	Range    *jsonRange `json:"range,omitempty"`
	Bool     *jsonBool  `json:"bool,omitempty"`
}

type jsonTerm struct {
	Field string `json:"field"`
	Value string `json:"value"`
}

type jsonMatch struct {
	Text string `json:"text"`
}

type jsonRange struct {
	From time.Time `json:"from"`
	To   time.Time `json:"to"`
}

type jsonBool struct {
	Must    []jsonQuery `json:"must,omitempty"`
	Should  []jsonQuery `json:"should,omitempty"`
	MustNot []jsonQuery `json:"must_not,omitempty"`
}

// ParseQuery decodes the JSON DSL into a Query.
func ParseQuery(raw []byte) (Query, error) {
	var jq jsonQuery
	if err := json.Unmarshal(raw, &jq); err != nil {
		return nil, fmt.Errorf("store: bad query: %w", err)
	}
	return jq.toQuery()
}

func (jq jsonQuery) toQuery() (Query, error) {
	switch {
	case jq.Term != nil:
		return Term{Field: jq.Term.Field, Value: jq.Term.Value}, nil
	case jq.Match != nil:
		return Match{Text: jq.Match.Text}, nil
	case jq.Range != nil:
		return TimeRange{From: jq.Range.From, To: jq.Range.To}, nil
	case jq.Bool != nil:
		b := Bool{}
		for _, sub := range jq.Bool.Must {
			q, err := sub.toQuery()
			if err != nil {
				return nil, err
			}
			b.Must = append(b.Must, q)
		}
		for _, sub := range jq.Bool.Should {
			q, err := sub.toQuery()
			if err != nil {
				return nil, err
			}
			b.Should = append(b.Should, q)
		}
		for _, sub := range jq.Bool.MustNot {
			q, err := sub.toQuery()
			if err != nil {
				return nil, err
			}
			b.MustNot = append(b.MustNot, q)
		}
		return b, nil
	default:
		return MatchAll{}, nil
	}
}

// Querier is the read API behind the query routes. A store node answers it
// through an adapter over *Store, a cluster front (cluster.Coordinator)
// directly. Only a front's reads fail — a partition no live node could
// answer — and QueryMux answers a failed read 502.
type Querier interface {
	// Search returns the top size hits by time, newest first unless
	// sortAsc (size 0 = 10, negative = unlimited).
	Search(ctx context.Context, q Query, size int, sortAsc bool) ([]Hit, error)
	Count(ctx context.Context, q Query) (int, error)
	// DateHistogramSparse returns the non-empty buckets, ascending by Start.
	DateHistogramSparse(ctx context.Context, q Query, interval time.Duration) ([]HistogramBucket, error)
	Terms(ctx context.Context, q Query, field string, size int) ([]TermBucket, error)
}

// storeQuerier answers Querier from a local store, whose reads never fail.
type storeQuerier struct{ st *Store }

func (s storeQuerier) Search(_ context.Context, q Query, size int, sortAsc bool) ([]Hit, error) {
	return s.st.Search(SearchRequest{Query: q, Size: size, SortAsc: sortAsc}), nil
}

func (s storeQuerier) Count(_ context.Context, q Query) (int, error) {
	return s.st.CountQuery(q), nil
}

func (s storeQuerier) DateHistogramSparse(_ context.Context, q Query, interval time.Duration) ([]HistogramBucket, error) {
	return s.st.DateHistogramSparse(q, interval), nil
}

func (s storeQuerier) Terms(_ context.Context, q Query, field string, size int) ([]TermBucket, error) {
	return s.st.Terms(q, field, size), nil
}

// Handler returns an http.Handler exposing the store API:
//
//	POST /index         {"time": ..., "fields": {...}, "body": "..."}
//	POST /index/batch   {"docs": [{...}, ...]}
//	POST /search        {"query": {...}, "size": 100, "sort_asc": false}
//	GET  /search?q=app:sshd+-preauth+temperature&size=20
//	POST /count         {"query": {...}}
//	POST /agg/datehist  {"query": {...}, "interval": "1m", "sparse": false}
//	POST /agg/terms     {"query": {...}, "field": "hostname", "size": 10}
//	POST /read          a binary read request (readcodec.go)
//	GET  /stats
//
// Everything but the index routes is QueryMux, which a cluster front serves
// too.
func (st *Store) Handler() http.Handler {
	mux := QueryMux(storeQuerier{st}, func(context.Context) any { return st.Stats() })
	mux.HandleFunc("POST /index", st.handleIndex)
	mux.HandleFunc("POST /index/batch", st.handleIndexBatch)
	return mux
}

// QueryMux returns a mux serving the five JSON query routes and the binary
// POST /read over qr, and GET /stats from stats: the one query API of a
// store node and a cluster front. A body over MaxQueryBody is answered 413,
// one that does not decode or whose query does not parse 400, a read that
// fails 502; a binary request in a foreign codec version gets 415. GET
// /search takes the query-string syntax (ParseQueryString) and a size that
// defaults to 10.
func QueryMux(qr Querier, stats func(context.Context) any) *http.ServeMux {
	api := queryAPI{qr}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /read", api.read)
	mux.HandleFunc("POST /search", api.search)
	mux.HandleFunc("GET /search", api.searchGet)
	mux.HandleFunc("POST /count", api.count)
	mux.HandleFunc("POST /agg/datehist", api.dateHist)
	mux.HandleFunc("POST /agg/terms", api.terms)
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, stats(r.Context()))
	})
	return mux
}

// The JSON query routes' request bodies, the public form of a read. An
// absent query matches all documents.
type (
	SearchBody struct {
		Query   json.RawMessage `json:"query"`
		Size    int             `json:"size"`
		SortAsc bool            `json:"sort_asc"`
	}
	CountBody struct {
		Query json.RawMessage `json:"query"`
	}
	DateHistBody struct {
		Query    json.RawMessage `json:"query"`
		Interval string          `json:"interval"`
		// Sparse skips gap-filling: only non-empty buckets return.
		Sparse bool `json:"sparse,omitempty"`
	}
	TermsBody struct {
		Query json.RawMessage `json:"query"`
		Field string          `json:"field"`
		Size  int             `json:"size"`
	}
)

// The answers of /search and /count; the aggregations answer bare bucket
// lists.
type (
	SearchResult struct {
		Hits  []Hit `json:"hits"`
		Total int   `json:"total"`
	}
	CountResult struct {
		Count int `json:"count"`
	}
)

// queryAPI holds QueryMux's handlers.
type queryAPI struct{ qr Querier }

func (a queryAPI) search(w http.ResponseWriter, r *http.Request) {
	var body SearchBody
	if q, ok := readQuery(w, r, &body, &body.Query); ok {
		a.answerSearch(w, r, q, body.Size, body.SortAsc)
	}
}

func (a queryAPI) searchGet(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	q, err := ParseQueryString(params.Get("q"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	size := 10
	if s := params.Get("size"); s != "" {
		if size, err = strconv.Atoi(s); err != nil {
			http.Error(w, "bad size: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	a.answerSearch(w, r, q, size, false)
}

func (a queryAPI) answerSearch(w http.ResponseWriter, r *http.Request, q Query, size int, sortAsc bool) {
	hits, err := a.qr.Search(r.Context(), q, size, sortAsc)
	reply(w, SearchResult{Hits: hits, Total: len(hits)}, err)
}

func (a queryAPI) count(w http.ResponseWriter, r *http.Request) {
	var body CountBody
	if q, ok := readQuery(w, r, &body, &body.Query); ok {
		n, err := a.qr.Count(r.Context(), q)
		reply(w, CountResult{Count: n}, err)
	}
}

func (a queryAPI) dateHist(w http.ResponseWriter, r *http.Request) {
	var body DateHistBody
	q, ok := readQuery(w, r, &body, &body.Query)
	if !ok {
		return
	}
	interval, err := time.ParseDuration(body.Interval)
	if err != nil {
		http.Error(w, "bad interval: "+err.Error(), http.StatusBadRequest)
		return
	}
	buckets, err := a.qr.DateHistogramSparse(r.Context(), q, interval)
	if !body.Sparse {
		buckets = FillHistogram(buckets, interval)
	}
	reply(w, buckets, err)
}

func (a queryAPI) terms(w http.ResponseWriter, r *http.Request) {
	var body TermsBody
	q, ok := readQuery(w, r, &body, &body.Query)
	if !ok {
		return
	}
	if body.Field == "" {
		http.Error(w, "field required", http.StatusBadRequest)
		return
	}
	buckets, err := a.qr.Terms(r.Context(), q, body.Field, body.Size)
	reply(w, buckets, err)
}

// readBufPool recycles the buffers POST /read reads requests into and
// writes answers from. DecodeReadRequest copies the strings out, so a
// buffer is free for the next request as soon as the handler returns.
var readBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledReadBuf bounds the buffers readBufPool keeps: a large search
// answer is not held for the next request.
const maxPooledReadBuf = 1 << 20

// read answers POST /read: one binary read request, one binary answer.
func (a queryAPI) read(w http.ResponseWriter, r *http.Request) {
	buf := readBufPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledReadBuf {
			readBufPool.Put(buf)
		}
	}()
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxQueryBody)); err != nil {
		http.Error(w, err.Error(), bodyErrorStatus(err))
		return
	}
	req, err := DecodeReadRequest(buf.Bytes())
	if err != nil {
		http.Error(w, err.Error(), codecErrorStatus(err))
		return
	}
	var ans ReadAnswer
	ctx, q := r.Context(), req.Query
	switch req.Op {
	case ReadCount:
		ans.Count, err = a.qr.Count(ctx, q)
	case ReadHist:
		ans.Buckets, err = a.qr.DateHistogramSparse(ctx, q, req.Interval)
	case ReadTerms:
		ans.Terms, err = a.qr.Terms(ctx, q, req.Field, req.Size)
	case ReadSearch:
		ans.Hits, err = a.qr.Search(ctx, q, req.Size, req.SortAsc)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	buf.Reset()
	buf.Write(AppendReadAnswer(buf.AvailableBuffer(), req.Op, &ans))
	w.Header().Set("Content-Type", ReadContentType)
	_, _ = w.Write(buf.Bytes())
}

// codecErrorStatus answers a binary payload that does not decode: 415 when
// it is in a codec version this build does not speak, 400 otherwise. Either
// way the node is up and the payload is at fault.
func codecErrorStatus(err error) int {
	if errors.Is(err, ErrCodecVersion) {
		return http.StatusUnsupportedMediaType
	}
	return http.StatusBadRequest
}

// readQuery decodes a query route's JSON body into body and parses the
// query it holds at raw. When it reports false it has already answered:
// 413 for a body over MaxQueryBody, 400 for one that does not decode or
// parse.
func readQuery(w http.ResponseWriter, r *http.Request, body any, raw *json.RawMessage) (Query, bool) {
	if !decodeBody(w, r, MaxQueryBody, body) {
		return nil, false
	}
	if len(*raw) == 0 {
		return MatchAll{}, true
	}
	q, err := ParseQuery(*raw)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	return q, true
}

// reply writes v as JSON, or answers 502 when the read behind it failed.
func reply(w http.ResponseWriter, v any, err error) {
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	writeJSON(w, v)
}

// Request bodies are read through http.MaxBytesReader, so a client cannot
// make a node buffer more than these; one that tries is answered 413.
const (
	// MaxQueryBody bounds the JSON body of every query endpoint.
	MaxQueryBody = 1 << 20
	// MaxBatchBody bounds the index endpoints. A cluster router posts one
	// node's share of one pipeline batch at a time — 128 records by default
	// (collector.Config.BatchSize) of at most 1 MiB each (the syslog frame
	// limit), and typically a few hundred bytes — so it stays far below.
	MaxBatchBody = 256 << 20
)

// decodeBody decodes the request's JSON body, reading at most limit bytes
// of it, into v. When it reports false it has already answered: 413 for a
// body over the limit, 400 for one that does not decode.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v); err != nil {
		http.Error(w, err.Error(), bodyErrorStatus(err))
		return false
	}
	return true
}

func bodyErrorStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (st *Store) handleIndex(w http.ResponseWriter, r *http.Request) {
	var d Doc
	if !decodeBody(w, r, MaxBatchBody, &d) {
		return
	}
	id := st.Index(d)
	writeJSON(w, map[string]int64{"id": id})
}

// indexBatchBody is the public JSON form of POST /index/batch, the bulk
// ingest endpoint: a whole batch reaches the node as one request and one
// IndexBatch call. Cluster routers send the binary doc codec instead
// (Content-Type DocsContentType, see codec.go).
type indexBatchBody struct {
	Docs []Doc `json:"docs"`
}

// batchBufPool recycles the read buffers binary /index/batch requests
// decode from; DecodeDocs copies the strings out, so the buffer is free
// for the next request as soon as the handler returns.
var batchBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func (st *Store) handleIndexBatch(w http.ResponseWriter, r *http.Request) {
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, DocsContentType) {
		buf := batchBufPool.Get().(*bytes.Buffer)
		buf.Reset()
		defer batchBufPool.Put(buf)
		if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBatchBody)); err != nil {
			http.Error(w, err.Error(), bodyErrorStatus(err))
			return
		}
		docs, err := DecodeDocs(buf.Bytes(), nil)
		if err != nil {
			http.Error(w, err.Error(), codecErrorStatus(err))
			return
		}
		first := st.IndexBatch(docs)
		writeJSON(w, map[string]int64{"first_id": first, "count": int64(len(docs))})
		return
	}
	var body indexBatchBody
	if !decodeBody(w, r, MaxBatchBody, &body) {
		return
	}
	first := st.IndexBatch(body.Docs)
	writeJSON(w, map[string]int64{"first_id": first, "count": int64(len(body.Docs))})
}
