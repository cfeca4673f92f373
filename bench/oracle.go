package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
	"unicode"

	"hetsyslog/bench/workload"
	"hetsyslog/internal/core"
	"hetsyslog/internal/store"
)

// The oracle is a brute-force reference: documents held as flat records,
// every query answered by scanning all of them. It shares no code with
// the store's indexes, posting lists or aggregations — only the query
// types it is asked in and the result types it answers in.
//
// It is built two ways. Before traffic starts it is built from the
// generated inputs alone (what was sent, labelled by the uncached model),
// so it checks classification, indexing and every view against the
// inputs. After the drain it is built from a dump of what the store
// holds, so it checks every index-driven answer against a scan of the
// same documents; which records were admitted is checked separately, by
// the accounting invariants.

// Columns the reference keeps per document; the refresh filters and
// groups by nothing else.
const (
	colHost = iota
	colRack
	colArch
	colCategory
	colApp
	nCols
)

var colNames = [nCols]string{"hostname", "rack", "arch", "category", "app"}

// colOf returns the column holding field.
func colOf(field string) (int, error) {
	for i, name := range colNames {
		if name == field {
			return i, nil
		}
	}
	return 0, fmt.Errorf("oracle: no column for field %q", field)
}

type refDoc struct {
	at   int64
	id   int64
	col  [nCols]int32 // interned value, -1 when the field is absent
	mask uint32       // bit i set when the body contains terms[i]
	base int32        // inputs path: corpus base message, for labelling
	body string
}

type refCorpus struct {
	docs  []refDoc
	vals  [nCols][]string
	index [nCols]map[string]int32
	terms []string
}

func newRefCorpus(capacity int) *refCorpus {
	r := &refCorpus{docs: make([]refDoc, 0, capacity)}
	for i := range r.index {
		r.index[i] = make(map[string]int32)
	}
	return r
}

func (r *refCorpus) intern(col int, v string) int32 {
	if id, ok := r.index[col][v]; ok {
		return id
	}
	id := int32(len(r.vals[col]))
	r.vals[col] = append(r.vals[col], v)
	r.index[col][v] = id
	return id
}

// addInput adds one generated record as the document the system should
// store for it. Its category is filled in by labelBases.
func (r *refCorpus) addInput(c *workload.Corpus, rec workload.Record, at time.Time, body string) {
	n := c.Cluster.Nodes[rec.Host]
	d := refDoc{at: at.UnixNano(), id: int64(len(r.docs)), base: int32(rec.Base), body: body}
	d.col[colHost] = r.intern(colHost, n.Name)
	d.col[colRack] = r.intern(colRack, fmt.Sprintf("r%d", n.Rack))
	d.col[colArch] = r.intern(colArch, string(n.Arch))
	d.col[colApp] = r.intern(colApp, c.Base[rec.Base].App)
	d.col[colCategory] = -1
	r.docs = append(r.docs, d)
}

// labelBases labels every input document with the uncached model's
// category for its base message's template. A templated body is its base
// plus a job number the tokenizer masks, so one classification per base
// labels them all; the driver separately checks a sample of full texts
// against the uncached model (core.label_agreement).
func (r *refCorpus) labelBases(tc *core.TextClassifier, c *workload.Corpus) {
	label := make([]int32, len(c.Base))
	for i, b := range c.Base {
		label[i] = r.intern(colCategory, tc.Classify(b.Body+" job=1"))
	}
	for i := range r.docs {
		r.docs[i].col[colCategory] = label[r.docs[i].base]
	}
}

// addStored adds one document dumped from a store.
func (r *refCorpus) addStored(d store.Doc) {
	rd := refDoc{at: d.Time.UnixNano(), id: d.ID, body: d.Body}
	for c := 0; c < nCols; c++ {
		if v, ok := d.Fields.Get(colNames[c]); ok {
			rd.col[c] = r.intern(c, v)
		} else {
			rd.col[c] = -1
		}
	}
	r.docs = append(r.docs, rd)
}

// tokens splits a body the way the store's analyzer is documented to:
// runs of letters, digits, '_' and '.', lower-cased.
func tokens(s string, f func(tok string)) {
	start := -1
	for i, c := range s {
		if unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' || c == '.' {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			f(strings.ToLower(s[start:i]))
			start = -1
		}
	}
	if start >= 0 {
		f(strings.ToLower(s[start:]))
	}
}

// indexTerms records, per document, which of the given body tokens it
// contains — one tokenizing pass, so each Match query afterwards is a
// bit test.
func (r *refCorpus) indexTerms(terms []string) {
	r.terms = terms
	bit := make(map[string]uint32, len(terms))
	for i, t := range terms {
		bit[strings.ToLower(t)] = 1 << uint(i)
	}
	for i := range r.docs {
		var m uint32
		tokens(r.docs[i].body, func(tok string) { m |= bit[tok] })
		r.docs[i].mask = m
	}
}

// cond is a compiled conjunction: the only query shape a refresh issues.
type cond struct {
	eq    [nCols]int32 // -2 unconstrained
	mask  uint32
	from  int64
	to    int64
	never bool
}

func (r *refCorpus) compile(q store.Query) (cond, error) {
	c := cond{from: math.MinInt64, to: math.MaxInt64}
	for i := range c.eq {
		c.eq[i] = -2
	}
	err := r.compileInto(q, &c)
	return c, err
}

func (r *refCorpus) compileInto(q store.Query, c *cond) error {
	switch t := q.(type) {
	case nil, store.MatchAll:
	case store.Term:
		col, err := colOf(t.Field)
		if err != nil {
			return err
		}
		id := int32(-1)
		for v, vid := range r.index[col] {
			if strings.EqualFold(v, t.Value) {
				id = vid
			}
		}
		if id < 0 || (c.eq[col] != -2 && c.eq[col] != id) {
			c.never = true
		}
		c.eq[col] = id
	case store.Match:
		var unknown string
		tokens(t.Text, func(tok string) {
			for i, known := range r.terms {
				if strings.EqualFold(known, tok) {
					c.mask |= 1 << uint(i)
					return
				}
			}
			unknown = tok
		})
		if unknown != "" {
			return fmt.Errorf("oracle: body token %q was not indexed", unknown)
		}
	case store.TimeRange:
		if !t.From.IsZero() {
			c.from = max(c.from, t.From.UnixNano())
		}
		if !t.To.IsZero() {
			c.to = min(c.to, t.To.UnixNano())
		}
	case store.Bool:
		if len(t.Should) > 0 || len(t.MustNot) > 0 {
			return fmt.Errorf("oracle: only conjunctions are supported, got %+v", t)
		}
		for _, m := range t.Must {
			if err := r.compileInto(m, c); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("oracle: unsupported query %T", q)
	}
	return nil
}

func (c *cond) matches(d *refDoc) bool {
	if c.never || d.mask&c.mask != c.mask || d.at < c.from || d.at >= c.to {
		return false
	}
	for i, want := range c.eq {
		if want != -2 && d.col[i] != want {
			return false
		}
	}
	return true
}

// refQuerier answers the four primitives by scanning.
type refQuerier struct{ r *refCorpus }

func (rq refQuerier) scan(q store.Query, f func(d *refDoc)) error {
	c, err := rq.r.compile(q)
	if err != nil {
		return err
	}
	for i := range rq.r.docs {
		if c.matches(&rq.r.docs[i]) {
			f(&rq.r.docs[i])
		}
	}
	return nil
}

func (rq refQuerier) Count(q store.Query) (int, error) {
	n := 0
	err := rq.scan(q, func(*refDoc) { n++ })
	return n, err
}

func (rq refQuerier) Terms(q store.Query, field string, size int) ([]store.TermBucket, error) {
	col, err := colOf(field)
	if err != nil {
		return nil, err
	}
	counts := make([]int, len(rq.r.vals[col]))
	err = rq.scan(q, func(d *refDoc) {
		if id := d.col[col]; id >= 0 {
			counts[id]++
		}
	})
	var out []store.TermBucket
	for id, n := range counts {
		if n > 0 {
			out = append(out, store.TermBucket{Value: rq.r.vals[col][id], Count: n})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Count != out[b].Count {
			return out[a].Count > out[b].Count
		}
		return out[a].Value < out[b].Value
	})
	if size > 0 && len(out) > size {
		out = out[:size]
	}
	return out, err
}

func (rq refQuerier) DateHistogram(q store.Query, interval time.Duration) ([]store.HistogramBucket, error) {
	counts := make(map[int64]int)
	iv := int64(interval)
	err := rq.scan(q, func(d *refDoc) {
		b := d.at / iv
		if d.at%iv < 0 {
			b--
		}
		counts[b]++
	})
	if len(counts) == 0 {
		return nil, err
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for b := range counts {
		lo, hi = min(lo, b), max(hi, b)
	}
	out := make([]store.HistogramBucket, 0, hi-lo+1)
	for b := lo; b <= hi; b++ {
		out = append(out, store.HistogramBucket{Start: time.Unix(0, b*iv).UTC(), Count: counts[b]})
	}
	return out, err
}

func (rq refQuerier) Search(q store.Query, size int) ([]store.Hit, error) {
	var found []*refDoc
	err := rq.scan(q, func(d *refDoc) { found = append(found, d) })
	sort.Slice(found, func(a, b int) bool {
		if found[a].at != found[b].at {
			return found[a].at > found[b].at
		}
		return found[a].id < found[b].id
	})
	if size > 0 && len(found) > size {
		found = found[:size]
	}
	hits := make([]store.Hit, len(found))
	for i, d := range found {
		hits[i].Doc = store.Doc{ID: d.id, Time: time.Unix(0, d.at).UTC(), Body: d.body,
			Fields: store.F("hostname", rq.r.vals[colHost][d.col[colHost]])}
	}
	return hits, err
}

// pickTerms chooses the refresh's body tokens from the corpus: the broad
// one is the token present in the largest share of documents whichever
// way the base messages are weighted (uniformly, as templated and novel
// traffic draws them, or by Zipf rank, as exact-repeat traffic does) and
// must reach a fifth on both; the selective ones sit near a twentieth, so
// that ANDed with one host of 512 they match under 0.1 %.
func pickTerms(c *workload.Corpus) (broad string, selective []string, err error) {
	type freq struct{ uniform, zipf float64 }
	df := make(map[string]*freq)
	var zsum float64
	for r := range c.Base {
		zsum += math.Pow(float64(1+r), -workload.ZipfS)
	}
	for r, b := range c.Base {
		seen := make(map[string]bool)
		tokens(b.Body, func(tok string) {
			if seen[tok] || len(tok) < 3 || strings.ContainsAny(tok, "0123456789") {
				return
			}
			seen[tok] = true
			f := df[tok]
			if f == nil {
				f = &freq{}
				df[tok] = f
			}
			f.uniform += 1 / float64(len(c.Base))
			f.zipf += math.Pow(float64(1+r), -workload.ZipfS) / zsum
		})
	}
	names := make([]string, 0, len(df))
	for tok := range df {
		names = append(names, tok)
	}
	sort.Strings(names)
	floor := func(tok string) float64 { return min(df[tok].uniform, df[tok].zipf) }
	for _, tok := range names {
		if broad == "" || floor(tok) > floor(broad) {
			broad = tok
		}
	}
	if broad == "" || floor(broad) < 0.2 {
		return "", nil, fmt.Errorf("no body token reaches a fifth of the corpus (best %q at %.3f)", broad, floor(broad))
	}
	sort.SliceStable(names, func(a, b int) bool {
		return math.Abs(df[names[a]].uniform-0.05) < math.Abs(df[names[b]].uniform-0.05)
	})
	for _, tok := range names {
		if tok != broad && floor(tok) > 0.01 && max(df[tok].uniform, df[tok].zipf) < 0.2 {
			selective = append(selective, tok)
			if len(selective) == 2 {
				return broad, selective, nil
			}
		}
	}
	return "", nil, fmt.Errorf("corpus has no two mid-frequency body tokens for the selective searches")
}

// cacheRatios classifies n draws of g through a fresh classify cache and
// returns the share answered by each level and the share that ran the
// model.
func cacheRatios(sys *system, g *workload.Generator, n int) (raw, masked, miss float64) {
	cache := core.NewClassifyCache(core.DefaultCacheShards, core.DefaultCacheSize)
	var sc core.ClassifyScratch
	var counts [3]int
	for i := 0; i < n; i++ {
		_, outcome := sys.tc.PredictCached(string(g.Next().Body), cache, &sc)
		switch outcome {
		case core.CacheHitRaw:
			counts[0]++
		case core.CacheHitMasked:
			counts[1]++
		default:
			counts[2]++
		}
	}
	return float64(counts[0]) / float64(n), float64(counts[1]) / float64(n), float64(counts[2]) / float64(n)
}
