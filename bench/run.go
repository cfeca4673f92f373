package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hetsyslog/bench/stat"
	"hetsyslog/bench/trace"
	"hetsyslog/bench/workload"
	"hetsyslog/internal/store"
)

// spec is one workload. Workloads differ only in the traffic the sender
// writes and, for cluster-rw, in the topology it goes to; every knob of
// the system is the same in all of them.
type spec struct {
	name string
	why  string
	// shape is what the ingest stream repeats.
	shape workload.Shape
	// rate is the open loop's fixed records per second; 0 sends closed
	// loop, as fast as the bounded window allows.
	rate int
	// cluster routes documents across three store nodes and reads them
	// back through the coordinator.
	cluster bool
}

// Every workload has the same two users, side by side for the whole run:
// one sender on one TCP connection and one operator refreshing the
// dashboard back to back. (Pacing the operator, or letting them read only
// after the sender stops, was tried and dropped: a dozen refreshes per
// run, or a store caught at a random point of its retention sawtooth,
// spread refresh_p50_ms by 28 % and 60 % of its median.)
var specs = []spec{
	{name: "ingest-zipf", shape: workload.Exact,
		why: "closed-loop ingest of Zipf exact repeats: classify-cache raw hits, so parsing, dedup, hand-off and indexing do the work"},
	{name: "ingest-novel", shape: workload.Novel,
		why: "closed-loop ingest where every message carries unseen tokens: both cache levels miss, so the model runs on every record"},
	{name: "query-trickle", shape: workload.Templated, rate: 300,
		why: "dashboard refreshes over a full store that takes only the paper's 1M messages/hour: the read path does all the work"},
	{name: "serve-mixed", shape: workload.Templated, rate: 20000,
		why: "open-loop 20k rec/s of templated traffic beside the refreshes, retention running: writers against readers, compaction spikes"},
	{name: "cluster-rw", shape: workload.Templated, rate: 5000, cluster: true,
		why: "open-loop 5k rec/s routed to 3 store nodes at replication 2, refreshes through the coordinator: wire codec, HTTP hop, fan-out, merge"},
}

// pinned says what fixes a metric on this workload, "" if nothing does. An
// open-loop sender's throughput is its schedule, and at query-trickle's
// rate a batch never fills, so a record waits out the flush interval
// whatever the code does. The contract wants every end-to-end metric on
// every workload; these pairs are reported, and can still fall (a system
// that no longer keeps up with the schedule), but a pair that holds still
// is not evidence that a change cost nothing.
func (sp spec) pinned(metric string) string {
	switch {
	case metric == "ingest_recs_per_s" && sp.rate > 0:
		return "the sender's schedule"
	case metric == "fresh_p50_ms" && sp.name == "query-trickle":
		return "the flush interval"
	}
	return ""
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind the value (records, refreshes,
	// batches...), 0 where it is a single reading.
	N int64 `json:"n,omitempty"`
}

// defaultSetups is how many times a run sets the system up from scratch;
// setup_s is the median. It is not a flag: reports made with different
// values would not be comparable.
const defaultSetups = 3

type runOptions struct {
	spec    spec
	seed    int64
	seconds float64
	traced  bool
	// setups is how many times the system is set up from scratch
	// (defaultSetups; 1 on traced runs and in tests); the last one is
	// measured, and setup_s is the median of all.
	setups int
	outDir string
}

type runResult struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Traced     bool              `json:"traced"`
	Correct    bool              `json:"correct"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	Violations []string          `json:"violations,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	Budget     []trace.Share     `json:"budget,omitempty"`
}

func (r *runResult) violate(n int64, format string, args ...any) {
	r.Failed += n
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// check counts one invariant as attempted and, when it does not hold, as
// failed.
func (r *runResult) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.violate(1, format, args...)
	}
}

// refreshClient is the operator: one goroutine refreshing the dashboard
// back to back.
type refreshClient struct {
	back backend
	plan refreshPlan
	tr   *tracer

	measuring atomic.Bool

	mu        sync.Mutex
	dur       stat.Samples // ms, refreshes started inside the window
	busyNs    int64        // the same refreshes, summed
	refreshes int64
	ops       int64
	errs      []string
}

func (c *refreshClient) run(ctx context.Context) {
	for n := int64(1); ctx.Err() == nil; n++ {
		keep := c.measuring.Load()
		start := time.Now()
		var span int32
		var timeOp func(string, time.Time, time.Time)
		if c.tr != nil {
			span = c.tr.rec.Reserve(spanRefresh, 0, n, start)
			timeOp = c.tr.refreshTimer(span, n, keep)
		}
		res, err := refresh(c.back, c.plan, timeOp)
		end := time.Now()
		if c.tr != nil {
			c.tr.rec.Finish(span, end)
		}
		c.mu.Lock()
		c.refreshes++
		c.ops += int64(res.ops)
		if err != nil {
			c.errs = append(c.errs, err.Error())
		}
		if keep {
			c.dur.Add(float64(end.Sub(start).Nanoseconds()) / 1e6)
			c.busyNs += end.Sub(start).Nanoseconds()
		}
		c.mu.Unlock()
	}
}

// counters is what is read at both ends of the measured window.
type counters struct {
	at      time.Time
	acked   uint64
	mallocs uint64
	pauseNs uint64
	cpu     time.Duration
	reg     regSnap
}

func readCounters(sys *system) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return counters{
		at: time.Now(), acked: sys.ack.acked.Load(),
		mallocs: ms.Mallocs, pauseNs: ms.PauseTotalNs,
		cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		reg: snapRegistry(sys),
	}
}

func warmup(seconds float64) time.Duration {
	return time.Duration(min(3, max(0.5, seconds*0.2)) * float64(time.Second))
}

// runWorkload sets the system up, checks it against the reference, drives
// it for the measured window, drains it, checks it again, and returns
// every metric of the run.
func runWorkload(o runOptions) (*runResult, error) {
	res := &runResult{Workload: o.spec.name, Seed: o.seed, Seconds: o.seconds, Traced: o.traced,
		Metrics: make(map[string]metric)}

	// Set-up, repeated so its time can be reported as a median.
	var sys *system
	var plan refreshPlan
	var setupTimes []float64
	for i := 0; i < max(1, o.setups); i++ {
		if sys != nil {
			sys.close()
			sys = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if sys, err = newSystem(o.spec, o.seed, o.traced); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if plan, err = newRefreshPlan(sys.corpus); err != nil {
			sys.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer sys.close()
	sort.Float64s(setupTimes)

	rawShare, maskedShare, missShare, err := checkShape(sys, o.spec, o.seed)
	if err != nil {
		return nil, err
	}

	// Reference check on the quiescent preloaded stores: every refresh
	// operation against a brute-force scan of the generated inputs.
	terms := append([]string{plan.broadTerm}, plan.selectiveTerms...)
	sys.ref.indexTerms(terms)
	compareRefresh(res, "preload", sys.back, genericBackend{refQuerier{sys.ref}}, plan, true)
	sys.ref = nil

	// Drive.
	gen := workload.NewGenerator(sys.corpus, o.spec.shape, o.seed+1, preloadDocs)
	snd, err := newSender(sys.src.BoundTCP, gen, sys.ack, o.spec.rate)
	if err != nil {
		return nil, err
	}
	ret := newRetentionAt(sys)
	client := &refreshClient{back: sys.back, plan: plan, tr: sys.tr}

	ctx, stopAll := context.WithCancel(context.Background())
	defer stopAll()
	sendCtx, stopSend := context.WithCancel(ctx)
	defer stopSend()
	var wg, sendWG sync.WaitGroup
	var sendErr error
	sendWG.Add(1)
	go func() { defer sendWG.Done(); sendErr = snd.run(sendCtx) }()
	wg.Add(2)
	go func() { defer wg.Done(); ret.run(ctx) }()
	go func() { defer wg.Done(); client.run(ctx) }()
	peak := startHeapPeak(ctx, &wg, o.traced)

	time.Sleep(warmup(o.seconds))
	sys.ack.measuring.Store(true)
	snd.measuring.Store(true)
	client.measuring.Store(true)
	c0 := readCounters(sys)
	time.Sleep(time.Duration(o.seconds * float64(time.Second)))
	c1 := readCounters(sys)
	sys.ack.measuring.Store(false)
	snd.measuring.Store(false)
	client.measuring.Store(false)

	// Drain: stop sending, prove everything sent was flushed, stop
	// reading, shut the pipeline down.
	stopSend()
	sendWG.Wait()
	if sendErr != nil {
		res.violate(1, "sender: %v", sendErr)
	}
	drainErr := snd.drain()
	sent := int64(gen.Seq() - preloadDocs)
	res.Attempted += sent
	if drainErr != nil {
		res.violate(int64(gen.Seq()-sys.ack.acked.Load()), "%v", drainErr)
	}
	stopAll()
	wg.Wait()
	if err := sys.stop(); err != nil {
		res.violate(1, "pipeline: %v", err)
	}

	checkAccounting(res, sys, ret, sent)
	res.Attempted += client.ops
	for _, e := range client.errs {
		res.violate(1, "refresh: %s", e)
	}

	// Reference check on the quiescent drained stores: every refresh
	// operation against a brute-force scan of a dump of the same stores.
	dump, err := dumpStores(sys)
	if err != nil {
		res.violate(1, "dump: %v", err)
	} else {
		dump.indexTerms(terms)
		compareRefresh(res, "drained", sys.back, genericBackend{refQuerier{dump}}, plan, !o.spec.cluster)
	}

	// End-to-end metrics.
	elapsed := c1.at.Sub(c0.at).Seconds()
	records := int64(c1.acked - c0.acked)
	m := res.Metrics
	m["setup_s"] = metric{stat.Quantile(setupTimes, 0.5), "s", int64(len(setupTimes))}
	m["ingest_recs_per_s"] = metric{float64(records) / elapsed, "rec/s", records}
	sys.ack.mu.Lock()
	m["fresh_p50_ms"] = metric{sys.ack.fresh.Quantile(0.5) / 1e6, "ms", int64(sys.ack.fresh.N())}
	m["tail.fresh_p99_ms"] = metric{sys.ack.fresh.Quantile(0.99) / 1e6, "ms", int64(sys.ack.fresh.N())}
	sys.ack.mu.Unlock()
	m["refresh_p50_ms"] = metric{client.dur.Quantile(0.5), "ms", int64(client.dur.N())}
	m["tail.refresh_p90_ms"] = metric{client.dur.Quantile(0.9), "ms", int64(client.dur.N())}
	m["heap_bytes_per_doc"] = metric{sys.heapPerDoc, "B", preloadDocs}
	if records == 0 || client.dur.N() == 0 {
		res.violate(1, "nothing measured: %d records, %d refreshes in the window", records, client.dur.N())
	}

	if o.traced {
		lm := layerInputs{
			sys: sys, spec: o.spec, seed: o.seed, plan: plan, client: client, ret: ret, snd: snd,
			c0: c0, c1: c1, records: records, peakMB: peak.value(),
			raw: rawShare, masked: maskedShare, miss: missShare,
		}
		layerMetrics(res, lm)
		if o.outDir != "" {
			if err := os.MkdirAll(o.outDir, 0o755); err != nil {
				return nil, err
			}
			path := filepath.Join(o.outDir, "trace-"+o.spec.name+".json")
			if err := sys.tr.rec.WriteFile(path, o.spec.name); err != nil {
				return nil, err
			}
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// compareRefresh runs the plan on the system and on the reference and
// counts every operation as attempted and every disagreeing field as
// failed.
func compareRefresh(res *runResult, when string, sysBack, refBack backend, plan refreshPlan, hitText bool) {
	got, err := refresh(sysBack, plan, nil)
	res.Attempted += int64(got.ops)
	if err != nil {
		res.violate(1, "%s refresh: %v", when, err)
		return
	}
	want, err := refresh(refBack, plan, nil)
	if err != nil {
		res.violate(1, "%s reference: %v", when, err)
		return
	}
	for _, d := range got.diff(want, hitText) {
		res.violate(1, "%s: %s", when, d)
	}
}

// checkAccounting checks the invariants the design relies on, at drain.
func checkAccounting(res *runResult, sys *system, ret *retention, sent int64) {
	st := sys.pipe.Stats()
	res.check(st.Ingested == st.Filtered+st.Flushed+st.Dropped+st.Spooled,
		"accounting: Ingested %d != Filtered %d + Flushed %d + Dropped %d + Spooled %d",
		st.Ingested, st.Filtered, st.Flushed, st.Dropped, st.Spooled)
	sys.ack.mu.Lock()
	source, emitted, outOfOrder := sys.ack.source, sys.ack.emitted, sys.ack.outOfOrder
	sys.ack.mu.Unlock()
	// Stage emissions pass only stages that never filter, so everything
	// Filtered is a record the sender sent.
	res.check(sent == source+st.Filtered, "sent %d records, but %d were flushed and %d filtered", sent, source, st.Filtered)
	res.check(st.Flushed == source+emitted, "pipeline flushed %d records, the sink saw %d sent + %d emitted", st.Flushed, source, emitted)
	res.check(outOfOrder == 0, "%d records reached the sink out of order", outOfOrder)
	copies := int64(0)
	for _, s := range sys.stores {
		copies += int64(s.Count())
	}
	want := ret.storedCopies(preloadDocs + st.Flushed)
	res.check(copies == want, "stores hold %d document copies, want %d (preloaded + flushed - retention, x replication)", copies, want)
	if sys.router != nil {
		var spooled, lost int64
		for _, ns := range sys.router.Stats() {
			spooled += ns.Spooled
			lost += ns.Lost
		}
		res.check(spooled == 0 && lost == 0, "router spooled %d and lost %d records", spooled, lost)
	}
}

// dumpStores reads back every stored document once: straight from the
// embedded store, through the coordinator (whose merge returns each
// replicated document exactly once) in cluster mode.
func dumpStores(sys *system) (*refCorpus, error) {
	var hits []store.Hit
	if sys.coord != nil {
		var err error
		if hits, err = sys.coord.Search(context.Background(), store.MatchAll{}, -1, false); err != nil {
			return nil, err
		}
	} else {
		hits = sys.stores[0].Search(store.SearchRequest{Query: store.MatchAll{}, Size: -1})
	}
	if want := sys.docs(); len(hits) != want {
		return nil, fmt.Errorf("dump returned %d documents, the stores count %d", len(hits), want)
	}
	ref := newRefCorpus(len(hits))
	for _, h := range hits {
		ref.addStored(h.Doc)
	}
	return ref, nil
}

// heapPeak samples the heap a few times a second on the traced run.
type heapPeak struct{ mb atomic.Int64 }

func (h *heapPeak) value() float64 { return float64(h.mb.Load()) }

func startHeapPeak(ctx context.Context, wg *sync.WaitGroup, on bool) *heapPeak {
	h := &heapPeak{}
	if !on {
		return h
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				if mb := int64(ms.HeapAlloc >> 20); mb > h.mb.Load() {
					h.mb.Store(mb)
				}
			}
		}
	}()
	return h
}
