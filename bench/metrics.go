package main

import (
	"sort"

	"hetsyslog/bench/stat"
	"hetsyslog/bench/trace"
	"hetsyslog/internal/obs"
)

// regSnap is the part of the obs registry read at both ends of the
// measured window, so registry-derived means cover the window only.
// (Registry quantiles cover the whole run, warm-up included: a fixed-
// bucket histogram cannot be windowed from outside.)
type regSnap struct {
	ingestSum, ingestCount     float64
	classifySum, classifyCount float64
	frames, parseErrors        int64
}

func hist(reg *obs.Registry, name string) *obs.Histogram {
	return reg.Histogram(name, "", obs.LatencyBuckets)
}

func snapRegistry(sys *system) regSnap {
	if sys.reg == nil {
		return regSnap{}
	}
	in, cl := hist(sys.reg, "syslog_ingest_batch_seconds"), hist(sys.reg, "service_classify_seconds")
	return regSnap{
		ingestSum: in.Sum(), ingestCount: float64(in.Count()),
		classifySum: cl.Sum(), classifyCount: float64(cl.Count()),
		frames:      sys.reg.Counter(`syslog_frames_total{transport="tcp"}`, "").Value(),
		parseErrors: sys.reg.Counter("syslog_dropped_total", "").Value(),
	}
}

// sub returns what the registry counted between an earlier reading and s.
func (s regSnap) sub(o regSnap) regSnap {
	return regSnap{
		ingestSum: s.ingestSum - o.ingestSum, ingestCount: s.ingestCount - o.ingestCount,
		classifySum: s.classifySum - o.classifySum, classifyCount: s.classifyCount - o.classifyCount,
		frames: s.frames - o.frames, parseErrors: s.parseErrors - o.parseErrors,
	}
}

// endToEnd lists the end-to-end metrics in reporting order; every other
// metric is per-layer. BENCHMARK.json carries the same names.
//
// The two tail latencies (tail.fresh_p99_ms, tail.refresh_p90_ms) are
// measured the same way and in the same run as the medians but are
// reported with the per-layer metrics, which carry no regression bound:
// a contract-sized run holds a handful of retention passes and a few dozen
// refreshes, so neither tail has ten samples beyond it, and their
// run-to-run spread on this host (up to half the median on cluster-rw)
// is wider than any bound the contract allows.
var endToEnd = []string{
	"setup_s", "ingest_recs_per_s", "fresh_p50_ms", "refresh_p50_ms", "heap_bytes_per_doc",
}

var budgetLayers = []string{"syslog", "collector", "detect", "core", "store", "cluster"}

type layerInputs struct {
	sys     *system
	spec    spec
	seed    int64
	plan    refreshPlan
	client  *refreshClient
	ret     *retention
	snd     *sender
	c0, c1  counters
	records int64
	peakMB  float64

	raw, masked, miss float64
}

func mean(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return div(t, float64(len(v)))
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics fills res with every per-layer metric of a traced run.
func layerMetrics(res *runResult, in layerInputs) {
	sys, tr, m := in.sys, in.sys.tr, res.Metrics
	recs := float64(in.records)
	wallNs := float64(in.c1.at.Sub(in.c0.at).Nanoseconds())
	spans, _ := tr.rec.Spans()
	epochFrom := spanTime(tr, in.c0)
	epochTo := spanTime(tr, in.c1)
	by := byName(spans, epochFrom, epochTo)
	get := func(name string) *spanStats {
		if s := by[name]; s != nil {
			return s
		}
		return &spanStats{}
	}

	// syslog
	parseNs, frames := replayParse(sys, in.spec, in.seed)
	d := in.c1.reg.sub(in.c0.reg)
	m["syslog.parse_ns_per_rec"] = metric{parseNs, "ns", int64(len(frames))}
	m["syslog.ingest_batch_ms_mean"] = metric{div(d.ingestSum, d.ingestCount) * 1e3, "ms", int64(d.ingestCount)}
	m["syslog.busy_share"] = metric{div(d.ingestSum*1e9, wallNs), "ratio", int64(d.ingestCount)}
	m["syslog.frames"] = metric{float64(d.frames), "count", 0}
	m["syslog.parse_errors"] = metric{float64(d.parseErrors), "count", 0}

	// collector
	dedupNs, dedupN := tr.stageNs("collector.dedup")
	enrichNs, enrichN := tr.stageNs("collector.enrich")
	ps := sys.pipe.Stats()
	flush := hist(sys.reg, "pipeline_flush_seconds")
	batch := sys.reg.Histogram("pipeline_batch_size", "", obs.SizeBuckets)
	m["collector.dedup_ns_per_rec"] = metric{dedupNs, "ns", dedupN}
	m["collector.enrich_ns_per_rec"] = metric{enrichNs, "ns", enrichN}
	tr.mu.Lock()
	m["collector.queue_wait_ms_p50"] = metric{tr.queueWait.Quantile(0.5) / 1e6, "ms", int64(tr.queueWait.N())}
	m["collector.queue_wait_ms_p99"] = metric{tr.queueWait.Quantile(0.99) / 1e6, "ms", int64(tr.queueWait.N())}
	tr.mu.Unlock()
	m["collector.flush_ms_p50"] = metric{flush.Quantile(0.5) * 1e3, "ms", flush.Count()}
	m["collector.batch_size_mean"] = metric{batch.Mean(), "count", batch.Count()}
	m["collector.filtered"] = metric{float64(ps.Filtered), "count", 0}
	m["collector.dropped"] = metric{float64(ps.Dropped), "count", 0}
	m["collector.spooled"] = metric{float64(ps.Spooled), "count", 0}
	m["collector.retries"] = metric{float64(ps.Retries), "count", 0}

	// detect
	detectNs, detectN := tr.stageNs("detect.process")
	inDetectNs, _ := tr.stageNs("core.classify_in_detect")
	var fired int64
	state := sys.det.State(0)
	for _, dc := range state.Detectors {
		fired += dc.Fired
	}
	m["detect.process_ns_per_rec"] = metric{max(0, detectNs-inDetectNs), "ns", detectN}
	m["detect.alerts"] = metric{float64(fired), "count", 0}
	m["detect.sources"] = metric{float64(state.Sources), "count", 0}

	// core
	write := get(spanWrite)
	rawHits, maskedHits, misses := sys.svc.CacheStats()
	lookups := float64(rawHits + maskedHits + misses)
	m["core.write_ms_per_batch"] = metric{div(float64(write.selfNs), float64(write.n)) / 1e6, "ms", write.n}
	m["core.classify_ns_per_rec"] = metric{div(d.classifySum, d.classifyCount) * 1e9, "ns", int64(d.classifyCount)}
	m["core.classify_in_detect_ns_per_rec"] = metric{inDetectNs, "ns", detectN}
	m["core.hit_ratio_raw"] = metric{div(float64(rawHits), lookups), "ratio", int64(lookups)}
	m["core.hit_ratio_masked"] = metric{div(float64(maskedHits), lookups), "ratio", int64(lookups)}
	m["core.miss_ratio"] = metric{div(float64(misses), lookups), "ratio", int64(lookups)}
	m["core.traffic_raw_share"] = metric{in.raw, "ratio", shapeSample}
	m["core.traffic_masked_share"] = metric{in.masked, "ratio", shapeSample}
	m["core.traffic_miss_share"] = metric{in.miss, "ratio", shapeSample}
	m["core.label_agreement"] = metric{sys.labelAgreement, "ratio", preloadDocs / sampleEvery}

	// store
	index := get(spanIndex)
	tr.mu.Lock()
	indexed := float64(tr.indexed)
	tr.mu.Unlock()
	// Every document indexed since set-up was counted, so the time is
	// summed over the whole run too, not the window.
	var indexTotalNs int64
	for _, s := range spans {
		if s.Name == spanIndex {
			indexTotalNs += s.Dur()
		}
	}
	indexNs := div(float64(indexTotalNs), indexed)
	var arena int64
	for _, st := range sys.stores {
		arena += st.Stats().ArenaBytes
	}
	broadMatches, _ := sys.back.Count(in.plan.broad)
	in.ret.mu.Lock()
	m["store.retention_ms_mean"] = metric{in.ret.runs.Mean(), "ms", int64(in.ret.runs.N())}
	m["store.retention_runs"] = metric{float64(in.ret.runs.N()), "count", 0}
	in.ret.mu.Unlock()
	m["store.index_ns_per_rec"] = metric{indexNs, "ns", int64(indexed)}
	m["store.index_ms_per_batch"] = metric{index.meanMs(), "ms", index.n}
	for _, op := range []struct{ metric, op string }{
		{"store.search_broad_ms_p50", opBroad}, {"store.search_selective_ms_p50", opSelective},
		{"store.count_ms_p50", opCount}, {"store.terms_ms_p50", opTerms},
		{"monitor.frequency_ms_p50", opFrequency}, {"monitor.positional_ms_p50", opPositional},
		{"monitor.perarch_ms_p50", opPerArch},
	} {
		v, n := tr.opP50(op.op)
		m[op.metric] = metric{v, "ms", n}
	}
	m["store.search_allocs_per_op"] = metric{searchAllocs(sys.back, in.plan), "count", 3}
	m["store.matches_per_hit"] = metric{float64(broadMatches) / searchSize, "ratio", 0}
	m["store.docs"] = metric{float64(sys.docs()), "count", 0}
	m["store.arena_bytes"] = metric{float64(arena), "B", 0}

	// cluster
	clusterMetrics(m, in, spans, get, frames)

	// process, generator, tracing
	m["proc.allocs_per_rec"] = metric{div(float64(in.c1.mallocs-in.c0.mallocs), recs), "count", in.records}
	m["proc.gc_pause_ms"] = metric{float64(in.c1.pauseNs-in.c0.pauseNs) / 1e6, "ms", 0}
	cpuNs := float64((in.c1.cpu - in.c0.cpu).Nanoseconds())
	m["proc.cpu_s_per_mrec"] = metric{div(cpuNs/1e9, recs/1e6), "s", in.records}
	m["proc.heap_peak_mb"] = metric{in.peakMB, "MB", 0}
	m["gen.late_ms_p99"] = metric{in.snd.late.Quantile(0.99) / 1e6, "ms", int64(in.snd.late.N())}

	// Layer budget. A record costs the pipeline wall/records nanoseconds
	// on each of its two goroutines — the connection's reader (frame,
	// parse, stage chain, enqueue) and the flusher (classify, index) — so
	// the base is twice the wall figure, and every layer's time is the
	// wall-clock time spent inside its calls on whichever of the two it
	// runs on. The residual is what neither spends in a timed call:
	// socket reads, queue hand-off, waiting for a batch to fill, idling
	// behind the other. Time a call spends descheduled or waiting for a
	// lock is inside its layer's figure, which is how a reader stalling
	// the indexer shows.
	route := get(spanRoute)
	layerNs := map[string]float64{
		"syslog":    parseNs,
		"collector": dedupNs + enrichNs,
		"detect":    max(0, detectNs-inDetectNs),
		"core":      div(float64(write.selfNs), recs) + inDetectNs,
		"store":     div(float64(index.totalNs), recs),
		"cluster":   div(float64(route.totalNs), recs),
	}
	res.Budget = trace.Budget(2*div(wallNs, recs), budgetLayers, layerNs)
	for _, row := range res.Budget {
		m["budget."+row.Layer+"_share"] = metric{row.Share, "ratio", in.records}
	}
}

// spanTime converts a counters reading to the recorder's clock.
func spanTime(tr *tracer, c counters) int64 { return tr.rec.Since(c.at) }

func clusterMetrics(m map[string]metric, in layerInputs, spans []trace.Span, get func(string) *spanStats, frames [][]byte) {
	sys := in.sys
	route, nodeIndex := get(spanRoute), get(spanNodeIndex)
	m["cluster.route_ms_per_batch"] = metric{route.meanMs(), "ms", route.n}
	m["cluster.node_serve_ms_p50"] = metric{nodeIndex.p50Ms(), "ms", nodeIndex.n}

	// Hop overhead: what a routed batch costs beyond its slowest replica's
	// own serve time — encode, HTTP, fan-out, decode on the far side. A
	// mean like route_ms_per_batch, so the two and the slowest replica's
	// mean serve time add up.
	hop := overheadMs(spans, spanRoute, spanNodeIndex)
	m["cluster.hop_overhead_ms"] = metric{mean(hop), "ms", int64(len(hop))}
	m["cluster.slowest_replica_ms"] = metric{max(0, route.meanMs()-mean(hop)), "ms", int64(len(hop))}
	// Gather overhead: the same for a scatter-gather read — fan-out,
	// wire, decode and the exact merge.
	gather := overheadMs(spans, spanScatter, spanNodeQuery)
	m["cluster.merge_ms_p50"] = metric{stat.Quantile(gather, 0.5), "ms", int64(len(gather))}

	var enc, dec, wire float64
	var hits, misses, spooled, opens int64
	if sys.router != nil {
		enc, dec, wire = replayCodec(sys, frames)
		hits = sys.reg.Counter("cluster_query_cache_hits_total", "").Value()
		misses = sys.reg.Counter("cluster_query_cache_misses_total", "").Value()
		for _, ns := range sys.router.Stats() {
			spooled += ns.Spooled
			if ns.Breaker != "closed" {
				opens++
			}
		}
	}
	m["cluster.encode_ns_per_doc"] = metric{enc, "ns", 0}
	m["cluster.decode_ns_per_doc"] = metric{dec, "ns", 0}
	m["cluster.wire_bytes_per_doc"] = metric{wire, "B", 0}
	m["cluster.cache_hit_ratio"] = metric{div(float64(hits), float64(hits+misses)), "ratio", hits + misses}
	m["cluster.spooled"] = metric{float64(spooled), "count", 0}
	m["cluster.breaker_opens"] = metric{float64(opens), "count", 0}
}

// overheadMs returns, per parent span, its duration minus the longest
// child that started inside it, sorted, in milliseconds.
func overheadMs(spans []trace.Span, parent, child string) []float64 {
	parents, slowest := trace.Slowest(spans, parent, child)
	out := make([]float64, 0, len(parents))
	for i, p := range parents {
		if slowest[i] > 0 {
			out = append(out, float64(p.Dur()-slowest[i])/1e6)
		}
	}
	sort.Float64s(out)
	return out
}
