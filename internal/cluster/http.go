package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"hetsyslog/internal/store"
)

// Handler exposes the coordinator over the same query API shape as a
// single store node, so clients and dashboards can point at a cluster
// front without changes:
//
//	POST /search        {"query": {...}, "size": 100, "sort_asc": false}
//	POST /count         {"query": {...}}
//	POST /agg/datehist  {"query": {...}, "interval": "1m"}
//	POST /agg/terms    {"query": {...}, "field": "hostname", "size": 10}
//	GET  /search?q=app:sshd+-preauth&size=20
//	GET  /stats
//
// Index endpoints are deliberately absent: ingest goes through the
// Router (a pipeline sink), not the query front.
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /search", co.handleSearch)
	mux.HandleFunc("POST /count", co.handleCount)
	mux.HandleFunc("POST /agg/datehist", co.handleDateHist)
	mux.HandleFunc("POST /agg/terms", co.handleTerms)
	mux.HandleFunc("GET /search", co.handleSearchGet)
	mux.HandleFunc("GET /stats", co.handleStats)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// parseBodyQuery decodes an optional JSON DSL query (empty = match all).
func parseBodyQuery(raw json.RawMessage) (store.Query, error) {
	if len(raw) == 0 {
		return store.MatchAll{}, nil
	}
	return store.ParseQuery(raw)
}

type searchBody struct {
	Query   json.RawMessage `json:"query"`
	Size    int             `json:"size"`
	SortAsc bool            `json:"sort_asc"`
}

func (co *Coordinator) handleSearch(w http.ResponseWriter, r *http.Request) {
	var body searchBody
	if !store.DecodeBody(w, r, store.MaxQueryBody, &body) {
		return
	}
	q, err := parseBodyQuery(body.Query)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	hits, err := co.Search(r.Context(), q, body.Size, body.SortAsc)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	writeJSON(w, map[string]any{"total": len(hits), "hits": hits})
}

func (co *Coordinator) handleSearchGet(w http.ResponseWriter, r *http.Request) {
	q, err := store.ParseQueryString(r.URL.Query().Get("q"))
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
	hits, err := co.Search(r.Context(), q, size, false)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	writeJSON(w, map[string]any{"total": len(hits), "hits": hits})
}

func (co *Coordinator) handleCount(w http.ResponseWriter, r *http.Request) {
	var body searchBody
	if !store.DecodeBody(w, r, store.MaxQueryBody, &body) {
		return
	}
	q, err := parseBodyQuery(body.Query)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	n, err := co.Count(r.Context(), q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	writeJSON(w, map[string]int{"count": n})
}

type dateHistBody struct {
	Query    json.RawMessage `json:"query"`
	Interval string          `json:"interval"`
}

func (co *Coordinator) handleDateHist(w http.ResponseWriter, r *http.Request) {
	var body dateHistBody
	if !store.DecodeBody(w, r, store.MaxQueryBody, &body) {
		return
	}
	q, err := parseBodyQuery(body.Query)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	interval, err := time.ParseDuration(body.Interval)
	if err != nil {
		http.Error(w, "bad interval: "+err.Error(), http.StatusBadRequest)
		return
	}
	buckets, err := co.DateHistogram(r.Context(), q, interval)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	writeJSON(w, buckets)
}

type termsBody struct {
	Query json.RawMessage `json:"query"`
	Field string          `json:"field"`
	Size  int             `json:"size"`
}

func (co *Coordinator) handleTerms(w http.ResponseWriter, r *http.Request) {
	var body termsBody
	if !store.DecodeBody(w, r, store.MaxQueryBody, &body) {
		return
	}
	q, err := parseBodyQuery(body.Query)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if body.Field == "" {
		http.Error(w, "field required", http.StatusBadRequest)
		return
	}
	buckets, err := co.Terms(r.Context(), q, body.Field, body.Size)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	writeJSON(w, buckets)
}

func (co *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, co.Stats(r.Context()))
}
