package cluster

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"hetsyslog/internal/obs"
)

// Generation is a monotonically increasing ingest counter shared by the
// router and coordinator of one cluster front. The router bumps it every
// time documents actually reach a store node (live delivery or spool
// replay — a spooled-but-undelivered batch changes no query result), and
// the coordinator folds the current generation into every query cache
// key. Invalidation therefore costs nothing: ingest does not sweep the
// cache, it just makes every stale key unreachable, and the LRU bound
// retires the dead entries.
//
// The scheme assumes the front owning this Generation is the only ingest
// path into its nodes — true for both cmd/tivan and cmd/collector cluster
// modes, where one process runs the router and the coordinator. A
// deployment with several fronts writing to shared nodes must disable the
// cache (QueryCacheSize < 0 or a nil Gen) on fronts that query.
type Generation struct {
	n atomic.Int64
}

// NewGeneration returns a fresh shared ingest counter.
func NewGeneration() *Generation { return &Generation{} }

// Bump records that node-visible data changed. Safe on a nil receiver
// (routers without a configured Generation skip invalidation).
func (g *Generation) Bump() {
	if g != nil {
		g.n.Add(1)
	}
}

// Load returns the current generation (0 on a nil receiver).
func (g *Generation) Load() int64 {
	if g == nil {
		return 0
	}
	return g.n.Load()
}

// queryCache memoizes merged coordinator results (Count,
// DateHistogramSparse, Terms — not Search, whose hit payloads are unbounded) keyed on
// the store generation and the read's binary request (operation,
// parameters, query).
// Concurrent callers asking for the same key collapse onto one scatter,
// singleflight style: the first caller fans out, the rest wait for its
// merge. Errors are never cached, and a leader that fails lets the next
// caller retry. Entries are LRU-bounded; generation churn retires old
// keys through the same bound.
type queryCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element
	lru     *list.List // front = most recent; values are *cacheEntry
	flight  map[string]*flightCall

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	collapsed *obs.Counter
}

type cacheEntry struct {
	key string
	val any
}

type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

// newQueryCache registers the cache's metrics in reg (nil = standalone)
// and returns a cache bounded to max entries.
func newQueryCache(max int, reg *obs.Registry) *queryCache {
	qc := &queryCache{
		max:     max,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
		flight:  make(map[string]*flightCall),
		hits: reg.Counter("cluster_query_cache_hits_total",
			"coordinator queries answered from the merged-result cache"),
		misses: reg.Counter("cluster_query_cache_misses_total",
			"coordinator queries that had to scatter"),
		evictions: reg.Counter("cluster_query_cache_evictions_total",
			"cached results retired by the LRU bound (stale generations age out here)"),
		collapsed: reg.Counter("cluster_query_cache_collapsed_total",
			"concurrent identical queries that waited on another caller's scatter"),
	}
	reg.GaugeFunc("cluster_query_cache_entries",
		"merged results currently cached", func() int64 {
			qc.mu.Lock()
			defer qc.mu.Unlock()
			return int64(len(qc.entries))
		})
	return qc
}

// do returns the cached value for key or computes it via fill, collapsing
// concurrent identical keys onto a single fill call. ctx bounds only the
// wait of a collapsed caller; the leader's fill runs under the leader's
// own context (a canceled leader surfaces its error to every waiter, who
// simply retry on their next call — errors are not cached).
func (qc *queryCache) do(ctx context.Context, key string, fill func() (any, error)) (any, error) {
	qc.mu.Lock()
	if el, ok := qc.entries[key]; ok {
		qc.lru.MoveToFront(el)
		val := el.Value.(*cacheEntry).val
		qc.mu.Unlock()
		qc.hits.Inc()
		return val, nil
	}
	if fc, ok := qc.flight[key]; ok {
		qc.mu.Unlock()
		qc.collapsed.Inc()
		select {
		case <-fc.done:
			return fc.val, fc.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	fc := &flightCall{done: make(chan struct{})}
	qc.flight[key] = fc
	qc.mu.Unlock()
	qc.misses.Inc()

	fc.val, fc.err = fill()

	qc.mu.Lock()
	delete(qc.flight, key)
	if fc.err == nil {
		qc.entries[key] = qc.lru.PushFront(&cacheEntry{key: key, val: fc.val})
		for len(qc.entries) > qc.max {
			tail := qc.lru.Back()
			qc.lru.Remove(tail)
			delete(qc.entries, tail.Value.(*cacheEntry).key)
			qc.evictions.Inc()
		}
	}
	qc.mu.Unlock()
	close(fc.done)
	return fc.val, fc.err
}

// len reports the live entry count (tests).
func (qc *queryCache) len() int {
	qc.mu.Lock()
	defer qc.mu.Unlock()
	return len(qc.entries)
}
