package store

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"hetsyslog/internal/obs"
)

func postJSON(t *testing.T, srv *httptest.Server, path string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHTTPRoundTrip(t *testing.T) {
	st := New(2)
	srv := httptest.NewServer(st.Handler())
	defer srv.Close()

	// Index two docs.
	for i, body := range []string{"CPU temperature above threshold", "Connection closed by peer"} {
		resp := postJSON(t, srv, "/index", Doc{
			Time:   t0.Add(time.Duration(i) * time.Minute),
			Fields: F("hostname", "cn101"),
			Body:   body,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("index status = %d", resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Search via the JSON DSL.
	resp := postJSON(t, srv, "/search", map[string]any{
		"query": map[string]any{"match": map[string]string{"text": "temperature"}},
		"size":  10,
	})
	defer resp.Body.Close()
	var result struct {
		Total int   `json:"total"`
		Hits  []Hit `json:"hits"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&result); err != nil {
		t.Fatal(err)
	}
	if result.Total != 1 || result.Hits[0].Doc.Body != "CPU temperature above threshold" {
		t.Fatalf("search result = %+v", result)
	}
}

func TestHTTPAggregations(t *testing.T) {
	st := New(2)
	seed(st)
	srv := httptest.NewServer(st.Handler())
	defer srv.Close()

	resp := postJSON(t, srv, "/agg/datehist", map[string]any{"interval": "1m"})
	defer resp.Body.Close()
	var buckets []HistogramBucket
	if err := json.NewDecoder(resp.Body).Decode(&buckets); err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 5 {
		t.Errorf("datehist buckets = %d", len(buckets))
	}

	resp2 := postJSON(t, srv, "/agg/terms", map[string]any{"field": "hostname", "size": 2})
	defer resp2.Body.Close()
	var terms []TermBucket
	if err := json.NewDecoder(resp2.Body).Decode(&terms); err != nil {
		t.Fatal(err)
	}
	if len(terms) != 2 || terms[0].Value != "cn101" {
		t.Errorf("terms = %+v", terms)
	}
}

// TestHTTPStats reads /stats and the store's metrics after a count, read
// twice, kept a view on each shard (four misses, counted before the
// registry was attached) and, repeated after a delete, extended one of them
// and restarted the other.
func TestHTTPStats(t *testing.T) {
	st := New(2)
	seed(st)
	st.CountQuery(MatchAll{})
	st.CountQuery(MatchAll{})
	reg := obs.NewRegistry()
	st.Instrument(reg)
	st.Delete(0)
	st.CountQuery(MatchAll{})
	srv := httptest.NewServer(st.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s["docs"] != 4 || s["shards"] != 2 || s["views"] != 2 ||
		s["view_hits"] != 1 || s["view_misses"] != 4 || s["view_resets"] != 1 {
		t.Errorf("stats = %+v", s)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"store_views 2\n", "# TYPE store_view_resets_total counter\n",
		"store_view_hits_total 1\n", "store_view_misses_total 4\n", "store_view_resets_total 1\n"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}

func TestHTTPBadRequests(t *testing.T) {
	st := New(1)
	srv := httptest.NewServer(st.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/search", "application/json",
		bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad search body status = %d", resp.StatusCode)
	}

	resp2 := postJSON(t, srv, "/agg/datehist", map[string]any{"interval": "not-a-duration"})
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad interval status = %d", resp2.StatusCode)
	}

	resp3 := postJSON(t, srv, "/agg/terms", map[string]any{"size": 5})
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("missing field status = %d", resp3.StatusCode)
	}
}

func TestParseQueryDSL(t *testing.T) {
	raw := []byte(`{"bool":{
		"must":[{"term":{"field":"app","value":"kernel"}},
		        {"range":{"from":"2023-07-01T00:00:00Z"}}],
		"must_not":[{"match":{"text":"usb"}}]}}`)
	q, err := ParseQuery(raw)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := q.(Bool)
	if !ok || len(b.Must) != 2 || len(b.MustNot) != 1 {
		t.Fatalf("parsed = %#v", q)
	}
	if _, err := ParseQuery([]byte("{bad")); err == nil {
		t.Error("expected parse error")
	}
	// Empty object = match_all.
	q2, err := ParseQuery([]byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q2.(MatchAll); !ok {
		t.Errorf("empty query = %#v, want MatchAll", q2)
	}
}

func TestHTTPSearchGet(t *testing.T) {
	st := New(2)
	seed(st)
	srv := httptest.NewServer(st.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/search?q=" + url.QueryEscape("hostname:cn101 temperature") + "&size=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Total int `json:"total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Total != 2 {
		t.Errorf("GET search total = %d, want 2", out.Total)
	}
	// Bad query errors.
	resp2, err := http.Get(srv.URL + "/search?q=after:nope")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad q -> %d", resp2.StatusCode)
	}
}

// paddedBody returns a valid request body of exactly n bytes: the fields
// given plus a "pad" string no handler reads.
func paddedBody(n int, fields string) []byte {
	body := []byte(`{` + fields + `,"pad":"`)
	body = append(body, bytes.Repeat([]byte{'x'}, n-len(body)-2)...)
	return append(body, `"}`...)
}

// TestHTTPBodyLimits: every JSON query endpoint reads at most MaxQueryBody
// bytes and answers 413 to more; the index endpoints have their own, larger
// bound, so a batch far over the query limit is still taken.
func TestHTTPBodyLimits(t *testing.T) {
	st := New(1)
	srv := httptest.NewServer(st.Handler())
	defer srv.Close()
	const query = `"query":{"match_all":{}},"interval":"1m","field":"hostname"`
	for _, tc := range []struct {
		path, contentType string
		body              []byte
		want              int
	}{
		{"/search", "application/json", paddedBody(MaxQueryBody, query), http.StatusOK},
		{"/search", "application/json", paddedBody(MaxQueryBody+1, query), http.StatusRequestEntityTooLarge},
		{"/count", "application/json", paddedBody(MaxQueryBody+1, query), http.StatusRequestEntityTooLarge},
		{"/agg/datehist", "application/json", paddedBody(MaxQueryBody+1, query), http.StatusRequestEntityTooLarge},
		{"/agg/terms", "application/json", paddedBody(MaxQueryBody+1, query), http.StatusRequestEntityTooLarge},
		{"/agg/terms", "application/json", paddedBody(MaxQueryBody, query), http.StatusOK},
		{"/search", "application/json", []byte(`{"query":`), http.StatusBadRequest},
		{"/index", "application/json", paddedBody(2*MaxQueryBody, `"body":"one large record"`), http.StatusOK},
		{"/index/batch", "application/json", paddedBody(2*MaxQueryBody, `"docs":[{"body":"a"},{"body":"b"}]`), http.StatusOK},
		{"/index/batch", DocsContentType, EncodeDocs(nil, []Doc{{Body: string(paddedBody(2*MaxQueryBody, `"k":1`))}}), http.StatusOK},
	} {
		resp, err := http.Post(srv.URL+tc.path, tc.contentType, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s with %d bytes: %v", tc.path, len(tc.body), err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s (%s) with %d bytes: status %d, want %d", tc.path, tc.contentType, len(tc.body), resp.StatusCode, tc.want)
		}
	}
	if got := st.Count(); got != 4 {
		t.Errorf("store holds %d documents after the accepted index requests, want 4", got)
	}
}
