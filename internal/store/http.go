package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
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

// MarshalQuery renders a Query back into the JSON DSL — the inverse of
// ParseQuery, used by cluster coordinators forwarding (possibly
// partition-restricted) queries to remote store nodes over HTTP.
func MarshalQuery(q Query) (json.RawMessage, error) {
	jq, err := toJSONQuery(q)
	if err != nil {
		return nil, err
	}
	return json.Marshal(jq)
}

func toJSONQuery(q Query) (jsonQuery, error) {
	switch t := q.(type) {
	case nil, MatchAll:
		return jsonQuery{MatchAll: &struct{}{}}, nil
	case Term:
		return jsonQuery{Term: &jsonTerm{Field: t.Field, Value: t.Value}}, nil
	case Match:
		return jsonQuery{Match: &jsonMatch{Text: t.Text}}, nil
	case TimeRange:
		return jsonQuery{Range: &jsonRange{From: t.From, To: t.To}}, nil
	case Bool:
		jb := &jsonBool{}
		for _, sub := range t.Must {
			j, err := toJSONQuery(sub)
			if err != nil {
				return jsonQuery{}, err
			}
			jb.Must = append(jb.Must, j)
		}
		for _, sub := range t.Should {
			j, err := toJSONQuery(sub)
			if err != nil {
				return jsonQuery{}, err
			}
			jb.Should = append(jb.Should, j)
		}
		for _, sub := range t.MustNot {
			j, err := toJSONQuery(sub)
			if err != nil {
				return jsonQuery{}, err
			}
			jb.MustNot = append(jb.MustNot, j)
		}
		return jsonQuery{Bool: jb}, nil
	default:
		return jsonQuery{}, fmt.Errorf("store: cannot marshal query type %T", q)
	}
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

// Handler returns an http.Handler exposing the store API:
//
//	POST /index         {"time": ..., "fields": {...}, "body": "..."}
//	POST /index/batch   {"docs": [{...}, ...]}
//	POST /search        {"query": {...}, "size": 100, "sort_asc": false}
//	POST /count         {"query": {...}}
//	POST /agg/datehist  {"query": {...}, "interval": "1m", "sparse": false}
//	POST /agg/terms     {"query": {...}, "field": "hostname", "size": 10}
//	GET  /stats
func (st *Store) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /index", st.handleIndex)
	mux.HandleFunc("POST /index/batch", st.handleIndexBatch)
	mux.HandleFunc("POST /search", st.handleSearch)
	mux.HandleFunc("POST /count", st.handleCount)
	mux.HandleFunc("POST /agg/datehist", st.handleDateHist)
	mux.HandleFunc("POST /agg/terms", st.handleTerms)
	mux.HandleFunc("GET /stats", st.handleStats)
	mux.HandleFunc("GET /search", st.handleSearchGet)
	return mux
}

// handleSearchGet serves the curl-friendly query-string search:
//
//	GET /search?q=app:sshd+-preauth+temperature&size=20
func (st *Store) handleSearchGet(w http.ResponseWriter, r *http.Request) {
	q, err := ParseQueryString(r.URL.Query().Get("q"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	size := 10
	if s := r.URL.Query().Get("size"); s != "" {
		if _, err := fmt.Sscanf(s, "%d", &size); err != nil {
			http.Error(w, "bad size", http.StatusBadRequest)
			return
		}
	}
	hits := st.Search(SearchRequest{Query: q, Size: size})
	writeJSON(w, map[string]any{"total": len(hits), "hits": hits})
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

// DecodeBody decodes the request's JSON body, reading at most limit bytes
// of it, into v. When it reports false it has already answered: 413 for a
// body over the limit, 400 for one that does not decode.
func DecodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
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
	if !DecodeBody(w, r, MaxBatchBody, &d) {
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
			// A versioned-but-foreign payload gets 415, garbage a plain bad
			// request; either way the node is up and the payload is at fault.
			status := http.StatusBadRequest
			if errors.Is(err, ErrCodecVersion) {
				status = http.StatusUnsupportedMediaType
			}
			http.Error(w, err.Error(), status)
			return
		}
		first := st.IndexBatch(docs)
		writeJSON(w, map[string]int64{"first_id": first, "count": int64(len(docs))})
		return
	}
	var body indexBatchBody
	if !DecodeBody(w, r, MaxBatchBody, &body) {
		return
	}
	first := st.IndexBatch(body.Docs)
	writeJSON(w, map[string]int64{"first_id": first, "count": int64(len(body.Docs))})
}

func (st *Store) handleCount(w http.ResponseWriter, r *http.Request) {
	var body searchBody
	if !DecodeBody(w, r, MaxQueryBody, &body) {
		return
	}
	q := Query(MatchAll{})
	if len(body.Query) > 0 {
		var err error
		q, err = ParseQuery(body.Query)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	writeJSON(w, map[string]int{"count": st.CountQuery(q)})
}

type searchBody struct {
	Query   json.RawMessage `json:"query"`
	Size    int             `json:"size"`
	SortAsc bool            `json:"sort_asc"`
}

func (st *Store) handleSearch(w http.ResponseWriter, r *http.Request) {
	var body searchBody
	if !DecodeBody(w, r, MaxQueryBody, &body) {
		return
	}
	q := Query(MatchAll{})
	if len(body.Query) > 0 {
		var err error
		q, err = ParseQuery(body.Query)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	hits := st.Search(SearchRequest{Query: q, Size: body.Size, SortAsc: body.SortAsc})
	writeJSON(w, map[string]any{"total": len(hits), "hits": hits})
}

type dateHistBody struct {
	Query    json.RawMessage `json:"query"`
	Interval string          `json:"interval"`
	// Sparse skips gap-filling: only non-empty buckets return. Cluster
	// coordinators request this form and gap-fill once after merging.
	Sparse bool `json:"sparse,omitempty"`
}

func (st *Store) handleDateHist(w http.ResponseWriter, r *http.Request) {
	var body dateHistBody
	if !DecodeBody(w, r, MaxQueryBody, &body) {
		return
	}
	q := Query(MatchAll{})
	if len(body.Query) > 0 {
		var err error
		q, err = ParseQuery(body.Query)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	interval, err := time.ParseDuration(body.Interval)
	if err != nil {
		http.Error(w, "bad interval: "+err.Error(), http.StatusBadRequest)
		return
	}
	if body.Sparse {
		writeJSON(w, st.DateHistogramSparse(q, interval))
		return
	}
	writeJSON(w, st.DateHistogram(q, interval))
}

type termsBody struct {
	Query json.RawMessage `json:"query"`
	Field string          `json:"field"`
	Size  int             `json:"size"`
}

func (st *Store) handleTerms(w http.ResponseWriter, r *http.Request) {
	var body termsBody
	if !DecodeBody(w, r, MaxQueryBody, &body) {
		return
	}
	q := Query(MatchAll{})
	if len(body.Query) > 0 {
		var err error
		q, err = ParseQuery(body.Query)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	if body.Field == "" {
		http.Error(w, "field required", http.StatusBadRequest)
		return
	}
	writeJSON(w, st.Terms(q, body.Field, body.Size))
}

func (st *Store) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, st.Stats())
}
