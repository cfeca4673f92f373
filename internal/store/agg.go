package store

import (
	"sort"
	"time"
)

// HistogramBucket is one interval of a date histogram.
type HistogramBucket struct {
	Start time.Time `json:"start"`
	Count int       `json:"count"`
}

// MaxHistogramBuckets bounds how many contiguous buckets DateHistogram
// (and FillHistogram) will materialize. Without a bound, one document
// with a wild timestamp — e.g. a record whose timestamp failed to parse
// and stayed the zero time — plus a small interval would ask for billions
// of buckets and OOM the process from a single HTTP request. Past the
// bound the result degrades to the sparse form: non-empty buckets only.
const MaxHistogramBuckets = 100_000

// bucketIndex maps a document time onto the interval grid using floor
// division, so pre-1970 timestamps (negative Unix nanos) land in the
// bucket whose Start <= t < Start+interval instead of being shifted off
// the grid by Go's truncate-toward-zero division. Every node of a
// cluster computes the same grid, which is what lets per-node histograms
// merge by bucket Start.
func bucketIndex(t time.Time, interval time.Duration) int64 {
	return floorDiv(t.UnixNano(), int64(interval))
}

// floorDiv is integer division rounding toward negative infinity.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// DateHistogram counts matching documents per fixed interval — the
// message-volume-over-time view behind the §4.5.1 frequency analysis.
// Buckets are contiguous from the first to the last matching document;
// empty buckets in between are included so surges stand out. When the
// span would exceed MaxHistogramBuckets the result is the sparse form
// (non-empty buckets only, still sorted), so a single stray timestamp
// cannot force a multi-GB allocation.
func (st *Store) DateHistogram(q Query, interval time.Duration) []HistogramBucket {
	return FillHistogram(st.DateHistogramSparse(q, interval), interval)
}

// DateHistogramSparse is DateHistogram without gap-filling: only
// non-empty buckets, ascending by Start. This is the merge-friendly form
// a cluster coordinator requests from each node — summing sparse buckets
// by Start and gap-filling once after the merge is both cheaper on the
// wire and immune to per-node span blowups.
func (st *Store) DateHistogramSparse(q Query, interval time.Duration) []HistogramBucket {
	defer st.observeQuery(st.queryHist, st.queryStart())
	if interval <= 0 {
		interval = time.Minute
	}
	counts := make(map[int64]int)
	walked := 0
	for _, sh := range st.shards {
		walked += sh.histogram(q, int64(interval), counts)
	}
	st.queryCands.Observe(float64(walked))
	if len(counts) == 0 {
		return nil
	}
	out := make([]HistogramBucket, 0, len(counts))
	for b, c := range counts {
		out = append(out, HistogramBucket{
			Start: time.Unix(0, b*int64(interval)).UTC(),
			Count: c,
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Start.Before(out[b].Start) })
	return out
}

// histogram adds the shard's matches of q to counts, keyed by bucket
// index, and returns the entries visited. The shard's view keeps its
// buckets; the walk adds the documents appended since. Buckets come
// straight from the stored (sec, nsec) — the same wrapping arithmetic as
// Time.UnixNano — and a run of documents in one bucket costs one map
// update, which is the common case: shards fill in time order.
func (s *shard) histogram(q Query, interval int64, counts map[int64]int) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	key := newViewKey(opHist).num(interval).query(q)
	defer key.release()
	return s.read(key.b, q, func(ev *evaluator, v *view) int {
		if v.hist == nil {
			v.hist = make(map[int64]int)
		}
		var bucket, lo, run int64 // the current bucket starts at lo and has run docs so far
		visited := ev.each(func(_ int32, e *docEnt) {
			ns := e.sec*1e9 + int64(e.nsec)
			if run > 0 && uint64(ns-lo) < uint64(interval) {
				run++
				return
			}
			if run > 0 {
				v.hist[bucket] += int(run)
			}
			bucket = floorDiv(ns, interval)
			lo, run = bucket*interval, 1
		})
		if run > 0 {
			v.hist[bucket] += int(run)
		}
		for b, c := range v.hist {
			counts[b] += c
		}
		return visited
	})
}

// FillHistogram materializes the contiguous gap-filled histogram from
// sparse non-empty buckets (ascending by Start, all on the same interval
// grid). When the span from first to last bucket would exceed
// MaxHistogramBuckets — or overflows outright — the sparse input is
// returned unchanged, bounding the allocation; so is an input without
// gaps, which is already the dense form. It is exported so a
// cluster coordinator merging per-node sparse histograms applies exactly
// the same materialization rule as a single store.
func FillHistogram(sparse []HistogramBucket, interval time.Duration) []HistogramBucket {
	if len(sparse) == 0 {
		return nil
	}
	if interval <= 0 {
		interval = time.Minute
	}
	lo := bucketIndex(sparse[0].Start, interval)
	hi := bucketIndex(sparse[len(sparse)-1].Start, interval)
	span := hi - lo
	// span < 0 means hi-lo overflowed int64 (a zero-time doc next to a
	// current one at a tiny interval does exactly this).
	if span < 0 || span+1 > MaxHistogramBuckets || span+1 <= 0 || span+1 == int64(len(sparse)) {
		return sparse
	}
	out := make([]HistogramBucket, span+1)
	for i := range out {
		out[i].Start = time.Unix(0, (lo+int64(i))*int64(interval)).UTC()
	}
	for _, b := range sparse {
		out[bucketIndex(b.Start, interval)-lo].Count = b.Count
	}
	return out
}

// TermBucket is one value of a terms aggregation.
type TermBucket struct {
	Value string `json:"value"`
	Count int    `json:"count"`
}

// Terms counts matching documents per distinct value of a metadata field,
// descending — "group syslog by node / by service" (§4.5.1).
func (st *Store) Terms(q Query, field string, size int) []TermBucket {
	defer st.observeQuery(st.queryTerms, st.queryStart())
	counts := make(map[string]int)
	walked := 0
	for _, sh := range st.shards {
		walked += sh.terms(q, field, counts)
	}
	st.queryCands.Observe(float64(walked))
	return termBuckets(counts, size)
}

// terms adds the shard's matches of q to counts by value of field and
// returns the entries visited; the shard's view keeps the counters and the
// walk adds the documents appended since. Documents are grouped by value
// span — interned spans are canonical per shard, so span identity is
// exact-case string identity — and each distinct value's string is
// resolved once, at the end. The strings are arena views; retaining them as map keys and in
// the returned buckets is safe, a view pins its block.
func (s *shard) terms(q Query, field string, counts map[string]int) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fkey, ok := s.keySpan(field)
	if !ok {
		return 0
	}
	key := newViewKey(opTerms).str(field).query(q)
	defer key.release()
	return s.read(key.b, q, func(ev *evaluator, v *view) int {
		visited := ev.each(func(off int32, _ *docEnt) {
			if val, ok := s.fieldValue(off, fkey); ok {
				v.tally.add(tallyKey{v: val})
			}
		})
		v.tally.each(func(k tallyKey, c int) { counts[s.arena.view(k.v)] += c })
		return visited
	})
}

// termBuckets orders a value→count map the way Terms returns it and keeps
// the first size buckets (all when size <= 0).
func termBuckets(counts map[string]int, size int) []TermBucket {
	out := make([]TermBucket, 0, len(counts))
	for v, c := range counts {
		out = append(out, TermBucket{Value: v, Count: c})
	}
	SortTerms(out)
	if size > 0 && len(out) > size {
		out = out[:size]
	}
	return out
}

// PivotBucket is one value of a pivot's grouping field: how many matching
// documents carry it, and a full terms breakdown of those documents for
// each requested sub-field, in the order the sub-fields were given.
type PivotBucket struct {
	Value string         `json:"value"`
	Count int            `json:"count"`
	Sub   [][]TermBucket `json:"sub"`
}

// pivotTotal is the tallyKey.sub under which a pivot counts a group's own
// documents; sub-field i counts under sub = i.
const pivotTotal = -1

// Pivot groups the documents matching q by the value of one field and, in
// the same walk, breaks each group down by the values of the sub fields:
// Pivot(q, "rack", "category", "hostname") answers the whole §4.5.2
// positional view at the cost of one Terms call, where issuing Terms per
// rack costs 1 + 2×racks of them. Documents without the grouping field
// are skipped, as Terms skips them; buckets and each breakdown come in
// Terms order (count descending, then value). Shards merge by summing
// equal (value) and (value, sub-field, sub-value) counters.
func (st *Store) Pivot(q Query, by string, sub ...string) []PivotBucket {
	defer st.observeQuery(st.queryPivot, st.queryStart())
	type group struct {
		count int
		sub   []map[string]int
	}
	groups := make(map[string]*group)
	walked := 0
	for _, sh := range st.shards {
		walked += sh.pivot(q, by, sub, func(byVal string, i int, subVal string, c int) {
			g := groups[byVal]
			if g == nil {
				g = &group{sub: make([]map[string]int, len(sub))}
				for j := range g.sub {
					g.sub[j] = make(map[string]int)
				}
				groups[byVal] = g
			}
			if i == pivotTotal {
				g.count += c
			} else {
				g.sub[i][subVal] += c
			}
		})
	}
	st.queryCands.Observe(float64(walked))
	out := make([]PivotBucket, 0, len(groups))
	for v, g := range groups {
		b := PivotBucket{Value: v, Count: g.count, Sub: make([][]TermBucket, len(sub))}
		for i, m := range g.sub {
			b.Sub[i] = termBuckets(m, 0)
		}
		out = append(out, b)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Count != out[b].Count {
			return out[a].Count > out[b].Count
		}
		return out[a].Value < out[b].Value
	})
	return out
}

// pivot tallies the shard's matches of q per (group, sub-field, value)
// span triple in the shard's view, adding the documents appended since its
// last walk, then reports each counter once through emit with its strings
// resolved. Returns the entries visited.
func (s *shard) pivot(q Query, by string, sub []string, emit func(byVal string, sub int, subVal string, count int)) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	byKey, ok := s.keySpan(by)
	if !ok {
		return 0
	}
	// Sub-fields this shard has never stored cannot contribute.
	type subKey struct {
		i   int32
		key span
	}
	subKeys := make([]subKey, 0, len(sub))
	for i, f := range sub {
		if k, ok := s.keySpan(f); ok {
			subKeys = append(subKeys, subKey{int32(i), k})
		}
	}
	key := newViewKey(opPivot).str(by).num(int64(len(sub)))
	for _, f := range sub {
		key.str(f)
	}
	key.query(q)
	defer key.release()
	return s.read(key.b, q, func(ev *evaluator, v *view) int {
		visited := ev.each(func(off int32, _ *docEnt) {
			g, ok := s.fieldValue(off, byKey)
			if !ok {
				return
			}
			v.tally.add(tallyKey{by: g, sub: pivotTotal})
			for _, sk := range subKeys {
				if val, ok := s.fieldValue(off, sk.key); ok {
					v.tally.add(tallyKey{by: g, sub: sk.i, v: val})
				}
			}
		})
		v.tally.each(func(k tallyKey, c int) {
			emit(s.arena.view(k.by), int(k.sub), s.arena.view(k.v), c)
		})
		return visited
	})
}

// SortTerms orders term buckets the way Terms returns them: count
// descending, then value ascending. Exported so merged multi-node terms
// are truncated under exactly the same order as a single store's.
func SortTerms(out []TermBucket) {
	sort.Slice(out, func(a, b int) bool {
		if out[a].Count != out[b].Count {
			return out[a].Count > out[b].Count
		}
		return out[a].Value < out[b].Value
	})
}
