package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"hetsyslog/internal/obs"
	"hetsyslog/internal/store"
)

// Coordinator scatter-gathers queries across the cluster's store nodes
// and merges the results exactly. For each query it picks one live owner
// per partition, restricts each node's query to the partitions it was
// picked for (so replicated documents are counted exactly once), fans
// the per-node calls out concurrently, and fails a dead node's
// partitions over to their next replica. The merge shapes are the ones
// internal/store's aggregations were built to allow: histogram buckets
// sum by Start (then gap-fill once, under the single-store clamp), term
// buckets sum by value then re-sort and truncate, hits merge by time.
type Coordinator struct {
	cfg     Config
	ring    *ring
	clients []*NodeClient
	// gen is the front's shared ingest generation and cache its merged-
	// result memo (Count/DateHistogramSparse/Terms). Both nil when caching
	// is disabled (no Gen wired, or QueryCacheSize < 0).
	gen   *Generation
	cache *queryCache

	scatterLat  *obs.Histogram
	fanout      *obs.Histogram
	failovers   *obs.Counter
	queryTotal  *obs.Counter
	queryFailed *obs.Counter
}

// NewCoordinator validates cfg and returns a coordinator over its nodes.
// reg receives the scatter latency/fan-out instruments (nil = standalone).
func NewCoordinator(cfg Config, reg *obs.Registry) (*Coordinator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	co := &Coordinator{cfg: cfg, ring: newRing(cfg)}
	// One tuned transport spans every node, same as the router's, so
	// scatter rounds ride pooled keep-alive connections.
	httpc := newHTTPClient(cfg.HTTPTimeout)
	for _, url := range cfg.Nodes {
		co.clients = append(co.clients, &NodeClient{BaseURL: url, HTTP: httpc})
	}
	if cfg.Gen != nil && cfg.QueryCacheSize > 0 {
		co.gen = cfg.Gen
		co.cache = newQueryCache(cfg.QueryCacheSize, reg)
	}
	co.scatterLat = reg.Histogram("cluster_scatter_seconds",
		"scatter-gather latency per coordinator query (all rounds, merge included)",
		obs.LatencyBuckets)
	co.fanout = reg.Histogram("cluster_scatter_fanout",
		"nodes queried per coordinator query (failover rounds included)",
		obs.SizeBuckets)
	co.failovers = reg.Counter("cluster_scatter_failovers_total",
		"node failures rerouted to a surviving replica during queries")
	co.queryTotal = reg.Counter("cluster_query_total",
		"coordinator queries served")
	co.queryFailed = reg.Counter("cluster_query_failed_total",
		"coordinator queries that could not cover every partition")
	return co, nil
}

// scatter plans and executes one query: it assigns every partition to
// its best live owner, groups partitions by node, and calls fn once per
// node concurrently with the query restricted to that node's partitions.
// A failed node is marked dead for the rest of this query and its
// partitions are retried on their next replica; scatter errors only when
// some partition has no live owner left (its data is unreachable).
func (co *Coordinator) scatter(ctx context.Context, q store.Query,
	fn func(ctx context.Context, node int, q store.Query) error) error {
	co.queryTotal.Inc()
	start := time.Now()
	defer func() { co.scatterLat.ObserveDuration(time.Since(start)) }()

	if q == nil {
		q = store.MatchAll{}
	}
	remaining := make([]int, co.cfg.Partitions)
	for p := range remaining {
		remaining[p] = p
	}
	dead := make([]bool, len(co.clients))
	nodesQueried := 0
	for len(remaining) > 0 {
		// Assign each uncovered partition to its best live owner.
		perNode := make(map[int][]int)
		for _, p := range remaining {
			assigned := false
			for _, n := range co.ring.replicas(p, co.cfg.Replication) {
				if !dead[n] {
					perNode[n] = append(perNode[n], p)
					assigned = true
					break
				}
			}
			if !assigned {
				co.queryFailed.Inc()
				return fmt.Errorf("cluster: partition %d has no live replica (every owner failed)", p)
			}
		}
		// Fan out.
		type result struct {
			node  int
			parts []int
			err   error
		}
		results := make([]result, 0, len(perNode))
		var mu sync.Mutex
		var wg sync.WaitGroup
		for n, parts := range perNode {
			nodesQueried++
			wg.Add(1)
			go func(n int, parts []int) {
				defer wg.Done()
				err := fn(ctx, n, restrictToPartitions(q, parts))
				mu.Lock()
				results = append(results, result{node: n, parts: parts, err: err})
				mu.Unlock()
			}(n, parts)
		}
		wg.Wait()
		remaining = remaining[:0]
		for _, r := range results {
			if r.err != nil {
				dead[r.node] = true
				co.failovers.Inc()
				remaining = append(remaining, r.parts...)
			}
		}
	}
	co.fanout.Observe(float64(nodesQueried))
	return nil
}

// restrictToPartitions wraps q so it only matches documents stamped with
// one of the given partitions: all of q, plus at least one partition
// Should-term — exactly Bool's semantics.
func restrictToPartitions(q store.Query, parts []int) store.Query {
	should := make([]store.Query, len(parts))
	for i, p := range parts {
		should[i] = store.Term{Field: PartitionField, Value: strconv.Itoa(p)}
	}
	return store.Bool{Must: []store.Query{q}, Should: should}
}

// cached routes fill through the merged-result cache when it is enabled,
// keying on the current ingest generation and req's binary encoding — the
// operation, its parameters and the query, in the form a node receives and
// keys its views by. Ingest bumps the generation, which makes every stale
// key unreachable — a cached value can therefore never predate a data
// change under its own key. Cached values are shared across callers and
// must be treated as immutable.
func (co *Coordinator) cached(ctx context.Context, req store.ReadRequest, fill func() (any, error)) (any, error) {
	if co.cache == nil {
		return fill()
	}
	key := req.Append(binary.AppendVarint(nil, co.gen.Load()))
	return co.cache.do(ctx, string(key), fill)
}

// Search scatter-gathers a search. size limits the merged result
// (negative = unlimited) and is pushed down to the nodes: one scatter
// reads each partition from exactly one node, so the nodes' result sets
// are disjoint, any hit of the global top-size has fewer than size hits
// ahead of it on its own node, and the union of per-node top-size lists
// therefore contains the global one. Search results are
// deliberately not cached: hit payloads carry full documents, so one
// broad query could pin an unbounded slice of the corpus in memory —
// unlike the fixed-size merged aggregates Count/DateHistogramSparse/Terms
// memoize.
func (co *Coordinator) Search(ctx context.Context, q store.Query, size int, sortAsc bool) ([]store.Hit, error) {
	var mu sync.Mutex
	var hits []store.Hit
	err := co.scatter(ctx, q, func(ctx context.Context, node int, nq store.Query) error {
		h, err := co.clients[node].Search(ctx, nq, size, sortAsc)
		if err != nil {
			return err
		}
		mu.Lock()
		hits = append(hits, h...)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return MergeHits(hits, size, sortAsc), nil
}

// Count scatter-gathers a count; per-partition counts sum exactly.
// Results are memoized per ingest generation when the cache is enabled.
func (co *Coordinator) Count(ctx context.Context, q store.Query) (int, error) {
	v, err := co.cached(ctx, store.ReadRequest{Op: store.ReadCount, Query: q}, func() (any, error) {
		var mu sync.Mutex
		total := 0
		err := co.scatter(ctx, q, func(ctx context.Context, node int, nq store.Query) error {
			n, err := co.clients[node].Count(ctx, nq)
			if err != nil {
				return err
			}
			mu.Lock()
			total += n
			mu.Unlock()
			return nil
		})
		return total, err
	})
	if err != nil {
		return 0, err
	}
	return v.(int), nil
}

// DateHistogram is DateHistogramSparse gap-filled under the same
// store.MaxHistogramBuckets clamp as a single store, so the merged
// multi-node histogram is identical to one store holding the union.
func (co *Coordinator) DateHistogram(ctx context.Context, q store.Query, interval time.Duration) ([]store.HistogramBucket, error) {
	sparse, err := co.DateHistogramSparse(ctx, q, interval)
	if err != nil {
		return nil, err
	}
	return store.FillHistogram(sparse, interval), nil
}

// DateHistogramSparse scatter-gathers the sparse per-node histograms and
// sums buckets by Start. Results are memoized per ingest generation when
// the cache is enabled.
func (co *Coordinator) DateHistogramSparse(ctx context.Context, q store.Query, interval time.Duration) ([]store.HistogramBucket, error) {
	if interval <= 0 {
		interval = time.Minute
	}
	req := store.ReadRequest{Op: store.ReadHist, Query: q, Interval: interval}
	v, err := co.cached(ctx, req, func() (any, error) {
		var mu sync.Mutex
		var all [][]store.HistogramBucket
		err := co.scatter(ctx, q, func(ctx context.Context, node int, nq store.Query) error {
			b, err := co.clients[node].DateHistogramSparse(ctx, nq, interval)
			if err != nil {
				return err
			}
			mu.Lock()
			all = append(all, b)
			mu.Unlock()
			return nil
		})
		if err != nil {
			return nil, err
		}
		return MergeHistograms(all), nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]store.HistogramBucket), nil
}

// Terms scatter-gathers the full per-node terms aggregations, sums by
// value, and re-sorts/truncates once — exact, unlike merging per-node
// top-k truncations.
func (co *Coordinator) Terms(ctx context.Context, q store.Query, field string, size int) ([]store.TermBucket, error) {
	req := store.ReadRequest{Op: store.ReadTerms, Query: q, Field: field, Size: size}
	v, err := co.cached(ctx, req, func() (any, error) {
		var mu sync.Mutex
		var all [][]store.TermBucket
		err := co.scatter(ctx, q, func(ctx context.Context, node int, nq store.Query) error {
			b, err := co.clients[node].Terms(ctx, nq, field, 0)
			if err != nil {
				return err
			}
			mu.Lock()
			all = append(all, b)
			mu.Unlock()
			return nil
		})
		if err != nil {
			return nil, err
		}
		return MergeTerms(all, size), nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]store.TermBucket), nil
}

// Handler serves the store's query API over the cluster (store.QueryMux),
// so clients and dashboards point at a front as at a single node; its GET
// /stats answers ClusterStats. The index routes are absent: ingest goes
// through the Router, a pipeline sink.
func (co *Coordinator) Handler() http.Handler {
	return store.QueryMux(co, func(ctx context.Context) any { return co.Stats(ctx) })
}

// ClusterStats aggregates the per-node store stats the coordinator can
// reach. Docs double-counts replicas (it sums raw node totals; divide by
// the replication factor for a logical estimate).
type ClusterStats struct {
	Nodes     int           `json:"nodes"`
	Live      int           `json:"live"`
	Docs      int           `json:"docs"`
	TextTerms int           `json:"text_terms"`
	PerNode   []store.Stats `json:"per_node"`
}

// Stats polls every node's /stats; unreachable nodes leave a zero entry
// and decrement Live.
func (co *Coordinator) Stats(ctx context.Context) ClusterStats {
	out := ClusterStats{Nodes: len(co.clients), PerNode: make([]store.Stats, len(co.clients))}
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i, c := range co.clients {
		wg.Add(1)
		go func(i int, c *NodeClient) {
			defer wg.Done()
			s, err := c.Stats(ctx)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				return
			}
			out.PerNode[i] = s
			out.Live++
			out.Docs += s.Docs
			out.TextTerms += s.TextTerms
		}(i, c)
	}
	wg.Wait()
	return out
}

// MergeHits merges scattered hits into the single-store order: by time
// (descending unless sortAsc), ties broken by per-node doc id, truncated
// to size (negative = unlimited, zero = the store's default 10).
func MergeHits(hits []store.Hit, size int, sortAsc bool) []store.Hit {
	sort.Slice(hits, func(a, b int) bool {
		ta, tb := hits[a].Doc.Time, hits[b].Doc.Time
		if !ta.Equal(tb) {
			if sortAsc {
				return ta.Before(tb)
			}
			return tb.Before(ta)
		}
		return hits[a].Doc.ID < hits[b].Doc.ID
	})
	if size == 0 {
		size = 10
	}
	if size >= 0 && len(hits) > size {
		hits = hits[:size]
	}
	return hits
}

// MergeHistograms sums sparse per-node histograms by bucket Start into
// one sparse histogram, ascending. All inputs must share the interval
// grid — guaranteed by the store's floor-division bucketing.
func MergeHistograms(all [][]store.HistogramBucket) []store.HistogramBucket {
	counts := make(map[int64]int)
	for _, buckets := range all {
		for _, b := range buckets {
			counts[b.Start.UnixNano()] += b.Count
		}
	}
	if len(counts) == 0 {
		return nil
	}
	sparse := make([]store.HistogramBucket, 0, len(counts))
	for ns, c := range counts {
		sparse = append(sparse, store.HistogramBucket{Start: time.Unix(0, ns).UTC(), Count: c})
	}
	sort.Slice(sparse, func(a, b int) bool { return sparse[a].Start.Before(sparse[b].Start) })
	return sparse
}

// MergeTerms sums per-node term buckets by value and applies the
// single-store order (count desc, value asc) and truncation.
func MergeTerms(all [][]store.TermBucket, size int) []store.TermBucket {
	counts := make(map[string]int)
	for _, buckets := range all {
		for _, b := range buckets {
			counts[b.Value] += b.Count
		}
	}
	out := make([]store.TermBucket, 0, len(counts))
	for v, c := range counts {
		out = append(out, store.TermBucket{Value: v, Count: c})
	}
	store.SortTerms(out)
	if size > 0 && len(out) > size {
		out = out[:size]
	}
	return out
}
