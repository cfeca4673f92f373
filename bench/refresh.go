package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"hetsyslog/bench/workload"
	"hetsyslog/internal/cluster"
	"hetsyslog/internal/loggen"
	"hetsyslog/internal/monitor"
	"hetsyslog/internal/store"
	"hetsyslog/internal/taxonomy"
)

// A dashboard refresh is the fixed sequence of reads an operator's
// dashboard issues, timed as one operation because the operator waits for
// all of it: the three monitoring views, a count per category, the busiest
// hosts, one broad search and two selective ones.
const (
	freqInterval   = time.Minute
	surgeFactor    = 3
	surgeMinCount  = 50
	searchSize     = 10
	topHosts       = 10
	thermalQueryOf = taxonomy.ThermalIssue
)

// querier is the four store primitives a refresh is made of; the embedded
// store, the cluster coordinator and the oracle's brute-force reference
// all answer them.
type querier interface {
	DateHistogram(q store.Query, interval time.Duration) ([]store.HistogramBucket, error)
	Terms(q store.Query, field string, size int) ([]store.TermBucket, error)
	Count(q store.Query) (int, error)
	Search(q store.Query, size int) ([]store.Hit, error)
}

// backend adds the three monitoring views. Over the embedded store they
// are internal/monitor's own functions; over anything else (the
// coordinator, which monitor cannot read, and the reference) they are the
// same query sequences written against querier.
type backend interface {
	querier
	Frequency(q store.Query) (monitor.FrequencyReport, error)
	Positional(q store.Query) ([]monitor.RackReport, error)
	PerArch(q store.Query, arch string, nodes int) (monitor.ArchVerdict, error)
}

type storeBackend struct{ st *store.Store }

func (b storeBackend) DateHistogram(q store.Query, iv time.Duration) ([]store.HistogramBucket, error) {
	return b.st.DateHistogram(q, iv), nil
}
func (b storeBackend) Terms(q store.Query, field string, size int) ([]store.TermBucket, error) {
	return b.st.Terms(q, field, size), nil
}
func (b storeBackend) Count(q store.Query) (int, error) { return b.st.CountQuery(q), nil }
func (b storeBackend) Search(q store.Query, size int) ([]store.Hit, error) {
	return b.st.Search(store.SearchRequest{Query: q, Size: size}), nil
}
func (b storeBackend) Frequency(q store.Query) (monitor.FrequencyReport, error) {
	return monitor.Frequency(b.st, q, freqInterval, surgeFactor, surgeMinCount), nil
}
func (b storeBackend) Positional(q store.Query) ([]monitor.RackReport, error) {
	return monitor.Positional(b.st, q), nil
}
func (b storeBackend) PerArch(q store.Query, arch string, nodes int) (monitor.ArchVerdict, error) {
	return monitor.PerArch(b.st, q, arch, nodes, 0), nil
}

// coordQuerier answers from the cluster coordinator. On the traced run it
// records a span per scatter-gather so the node-serve spans recorded on
// the far side of the HTTP hop can be set against it.
type coordQuerier struct {
	co *cluster.Coordinator
	tr *tracer
}

func (c coordQuerier) span(start time.Time) {
	if c.tr != nil {
		c.tr.rec.Add(spanScatter, 0, 0, start, time.Now())
	}
}
func (c coordQuerier) DateHistogram(q store.Query, iv time.Duration) ([]store.HistogramBucket, error) {
	defer c.span(time.Now())
	return c.co.DateHistogram(context.Background(), q, iv)
}
func (c coordQuerier) Terms(q store.Query, field string, size int) ([]store.TermBucket, error) {
	defer c.span(time.Now())
	return c.co.Terms(context.Background(), q, field, size)
}
func (c coordQuerier) Count(q store.Query) (int, error) {
	defer c.span(time.Now())
	return c.co.Count(context.Background(), q)
}
func (c coordQuerier) Search(q store.Query, size int) ([]store.Hit, error) {
	defer c.span(time.Now())
	return c.co.Search(context.Background(), q, size, false)
}

// genericBackend builds the views from the four primitives, mirroring
// internal/monitor query for query.
type genericBackend struct{ querier }

func (b genericBackend) Frequency(q store.Query) (monitor.FrequencyReport, error) {
	buckets, err := b.DateHistogram(q, freqInterval)
	if err != nil {
		return monitor.FrequencyReport{}, err
	}
	rep := monitor.FrequencyReport{Buckets: buckets}
	rep.Surges = monitor.DetectSurges(buckets, surgeFactor, surgeMinCount)
	if len(rep.Surges) > 0 {
		window := store.Bool{Must: []store.Query{q, store.TimeRange{
			From: rep.Surges[0].Start,
			To:   rep.Surges[len(rep.Surges)-1].Start.Add(freqInterval),
		}}}
		if rep.TopNodes, err = b.Terms(window, "hostname", 5); err != nil {
			return rep, err
		}
		if rep.TopApps, err = b.Terms(window, "app", 5); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

func (b genericBackend) Positional(q store.Query) ([]monitor.RackReport, error) {
	racks, err := b.Terms(q, "rack", 0)
	if err != nil {
		return nil, err
	}
	out := make([]monitor.RackReport, 0, len(racks))
	for _, rb := range racks {
		rackQ := store.Bool{Must: []store.Query{q, store.Term{Field: "rack", Value: rb.Value}}}
		rep := monitor.RackReport{Rack: rb.Value, Total: rb.Count, ByCategory: map[string]int{}}
		cats, err := b.Terms(rackQ, "category", 0)
		if err != nil {
			return nil, err
		}
		for _, cb := range cats {
			rep.ByCategory[cb.Value] = cb.Count
		}
		hosts, err := b.Terms(rackQ, "hostname", 0)
		if err != nil {
			return nil, err
		}
		rep.NodesReporting = len(hosts)
		out = append(out, rep)
	}
	return out, nil
}

func (b genericBackend) PerArch(q store.Query, arch string, nodes int) (monitor.ArchVerdict, error) {
	archQ := store.Bool{Must: []store.Query{q, store.Term{Field: "arch", Value: arch}}}
	hosts, err := b.Terms(archQ, "hostname", 0)
	if err != nil {
		return monitor.ArchVerdict{}, err
	}
	v := monitor.ArchVerdict{Arch: arch, NodesReporting: len(hosts), NodesTotal: nodes}
	if nodes > 0 {
		v.Fraction = float64(len(hosts)) / float64(nodes)
	}
	v.LikelyFalseIndication = nodes > 1 && v.Fraction >= 0.8
	return v, nil
}

// refreshPlan fixes the queries of a refresh. They come from the corpus,
// not the seed, so a refresh costs the same on every run.
type refreshPlan struct {
	broad     store.Query   // a term in at least a fifth of the documents
	selective []store.Query // one host AND one term: under 0.1 % of the documents
	// broadTerm and selectiveTerms name the body tokens the plan searches
	// for, which the reference indexes ahead of time.
	broadTerm      string
	selectiveTerms []string
	categories     []taxonomy.Category
	arches         []archCount
}

type archCount struct {
	arch  string
	nodes int
}

func newRefreshPlan(c *workload.Corpus) (refreshPlan, error) {
	broad, mid, err := pickTerms(c)
	if err != nil {
		return refreshPlan{}, err
	}
	p := refreshPlan{
		broad:          store.Match{Text: broad},
		broadTerm:      broad,
		selectiveTerms: mid,
		categories:     taxonomy.All(),
	}
	for i, term := range mid {
		host := c.Cluster.Nodes[(i*197+31)%len(c.Cluster.Nodes)].Name
		p.selective = append(p.selective, store.Bool{Must: []store.Query{
			store.Term{Field: "hostname", Value: host}, store.Match{Text: term},
		}})
	}
	for _, a := range loggen.Arches() {
		if n := len(c.Cluster.NodesWithArch(a)); n > 0 {
			p.arches = append(p.arches, archCount{string(a), n})
		}
	}
	return p, nil
}

// opNames are the operation classes a refresh is timed by on the traced
// run, in the order the per-layer metrics report them.
const (
	opFrequency  = "monitor.frequency"
	opPositional = "monitor.positional"
	opPerArch    = "monitor.perarch"
	opCount      = "store.count"
	opTerms      = "store.terms"
	opBroad      = "store.search_broad"
	opSelective  = "store.search_selective"
)

// refreshResult is everything one refresh returned, in a form two
// backends' answers can be compared in: times as integers (time.Time
// carries a location pointer), empty slices as nil.
type refreshResult struct {
	Buckets    []bucketKey
	Surges     []monitor.Surge
	TopNodes   []store.TermBucket
	TopApps    []store.TermBucket
	Positional []monitor.RackReport
	PerArch    []monitor.ArchVerdict
	Counts     []int
	TopHosts   []store.TermBucket
	Broad      []hitKey
	Selective  [][]hitKey
	ops        int
}

type bucketKey struct {
	Start int64
	Count int
}

func (r *refreshResult) setFrequency(rep monitor.FrequencyReport) {
	for _, b := range rep.Buckets {
		r.Buckets = append(r.Buckets, bucketKey{b.Start.UnixNano(), b.Count})
	}
	for _, s := range rep.Surges {
		s.Start = time.Unix(0, s.Start.UnixNano()).UTC()
		r.Surges = append(r.Surges, s)
	}
	r.TopNodes = append(r.TopNodes, rep.TopNodes...)
	r.TopApps = append(r.TopApps, rep.TopApps...)
}

// hitKey is what a search hit is compared by. Document ids are the
// store's own numbering (and differ per replica), so they are left out.
type hitKey struct {
	At   int64
	Body string
	Host string
}

func hitKeys(hits []store.Hit) []hitKey {
	var out []hitKey
	for _, h := range hits {
		out = append(out, hitKey{h.Doc.Time.UnixNano(), h.Doc.Body, h.Doc.Fields.Value("hostname")})
	}
	return out
}

// refresh runs the plan once. timeOp, when not nil, is called with each
// operation class and its duration (the traced run's per-op timers).
func refresh(b backend, p refreshPlan, timeOp func(op string, start, end time.Time)) (refreshResult, error) {
	var res refreshResult
	var err error
	step := func(op string, f func() error) {
		if err != nil {
			return
		}
		var start time.Time
		if timeOp != nil {
			start = time.Now()
		}
		err = f()
		res.ops++
		if timeOp != nil {
			timeOp(op, start, time.Now())
		}
	}
	step(opFrequency, func() error {
		rep, e := b.Frequency(store.MatchAll{})
		res.setFrequency(rep)
		return e
	})
	step(opPositional, func() error {
		racks, e := b.Positional(store.MatchAll{})
		res.Positional = append(res.Positional, racks...)
		return e
	})
	thermal := monitor.CategoryQuery(thermalQueryOf)
	for _, a := range p.arches {
		step(opPerArch, func() error {
			v, e := b.PerArch(thermal, a.arch, a.nodes)
			res.PerArch = append(res.PerArch, v)
			return e
		})
	}
	for _, cat := range p.categories {
		step(opCount, func() error {
			n, e := b.Count(monitor.CategoryQuery(cat))
			res.Counts = append(res.Counts, n)
			return e
		})
	}
	step(opTerms, func() error {
		hosts, e := b.Terms(store.MatchAll{}, "hostname", topHosts)
		res.TopHosts = append(res.TopHosts, hosts...)
		return e
	})
	step(opBroad, func() error {
		hits, e := b.Search(p.broad, searchSize)
		res.Broad = hitKeys(hits)
		return e
	})
	for _, q := range p.selective {
		step(opSelective, func() error {
			hits, e := b.Search(q, searchSize)
			res.Selective = append(res.Selective, hitKeys(hits))
			return e
		})
	}
	return res, err
}

// diff lists where two refresh results disagree, one line per field.
func (a refreshResult) diff(b refreshResult, compareHitText bool) []string {
	var out []string
	check := func(name string, x, y any) {
		if !reflect.DeepEqual(x, y) {
			out = append(out, fmt.Sprintf("%s: got %v, reference %v", name, abbreviate(x), abbreviate(y)))
		}
	}
	check("frequency buckets", a.Buckets, b.Buckets)
	check("frequency surges", a.Surges, b.Surges)
	check("frequency top nodes", a.TopNodes, b.TopNodes)
	check("frequency top apps", a.TopApps, b.TopApps)
	check("positional", a.Positional, b.Positional)
	check("perarch", a.PerArch, b.PerArch)
	check("category counts", a.Counts, b.Counts)
	check("top hosts", a.TopHosts, b.TopHosts)
	if !compareHitText {
		// Hits that share a timestamp are ordered by store-local ids the
		// reference cannot know; their times are still determined.
		a, b = a.timesOnly(), b.timesOnly()
	}
	check("broad search", a.Broad, b.Broad)
	check("selective searches", a.Selective, b.Selective)
	return out
}

func (a refreshResult) timesOnly() refreshResult {
	strip := func(hs []hitKey) []hitKey {
		var out []hitKey
		for _, h := range hs {
			out = append(out, hitKey{At: h.At})
		}
		return out
	}
	a.Broad = strip(a.Broad)
	sel := make([][]hitKey, len(a.Selective))
	for i, hs := range a.Selective {
		sel[i] = strip(hs)
	}
	a.Selective = sel
	return a
}

func abbreviate(v any) string {
	s := fmt.Sprintf("%+v", v)
	if len(s) > 300 {
		s = s[:300] + "..."
	}
	return s
}
