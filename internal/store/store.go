// Package store implements "Tivan", the reproduction's stand-in for the
// paper's OpenSearch cluster (§4.2): a sharded in-process document store
// with an inverted index over message text and metadata fields, boolean and
// time-range queries, and the aggregations (date histogram, terms) that the
// monitoring views consume. Search selects each shard's hits in parallel;
// the aggregations and counts walk the shards one after another. Every
// read but an unbounded search keeps a per-shard view of its answer
// (view.go), so repeating it walks only the documents appended since.
//
// Storage is arena-backed (see arena.go): IndexBatch copies every retained
// byte — bodies and field strings — into shard-owned slabs, so callers keep
// ownership of everything they pass in. The syslog fast path leans on that:
// pooled messages are recycled right after indexing instead of detaching a
// fresh heap copy per record.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"
	"unsafe"

	"hetsyslog/internal/obs"
	"hetsyslog/internal/seen"
)

// Doc is one stored log record. Docs passed to Index/IndexBatch are copied
// into the shard arenas — the store retains no reference to the caller's
// strings or Fields slice. Docs returned from queries hold stable views
// into those arenas (or fresh copies, for Search hits and Get).
type Doc struct {
	ID   int64     `json:"id"`
	Time time.Time `json:"time"`
	// Fields holds exact-match metadata: hostname, app, severity,
	// facility, rack, arch, category, ...
	Fields Fields `json:"fields"`
	// Body is the free-text message content (analyzed).
	Body string `json:"body"`
}

// Analyze splits body text into lowercase search tokens. Letters, digits,
// underscores and dots form tokens (so "cn101", "real_memory" and IP
// fragments stay searchable).
func Analyze(s string) []string {
	return AnalyzeInto(s, nil)
}

// AnalyzeInto is Analyze appending into out — pass a reused scratch slice
// (truncated to len 0) and the call does not allocate a token slice, and
// tokens that are already lowercase ASCII (the common case for syslog
// bodies) are substrings of s rather than fresh ToLower copies.
func AnalyzeInto(s string, out []string) []string {
	start := -1
	flush := func(end int) {
		if start >= 0 {
			out = append(out, lowerToken(s[start:end]))
			start = -1
		}
	}
	for i, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '.' {
			if start < 0 {
				start = i
			}
			continue
		}
		flush(i)
	}
	flush(len(s))
	return out
}

// lowerToken lowercases a token, returning it unchanged (no copy) when it
// is already lowercase ASCII; any uppercase or non-ASCII byte defers to
// strings.ToLower for exact Unicode behaviour.
func lowerToken(s string) string {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x80 || ('A' <= c && c <= 'Z') {
			return strings.ToLower(s)
		}
	}
	return s
}

// docEnt is a stored document's pointer-free representation: the id, the
// timestamp decomposed into (sec, nsec), and the body span. Its field
// pairs live in the shard's fieldIDs, delimited by fEnds. One shard's
// corpus is therefore a handful of flat pointer-less arrays (ents, fEnds,
// fieldIDs, pairs, arena blocks) no matter how many documents it holds —
// the GC mark phase skips all of it, where a []Doc layout would put four
// string headers plus a Fields slice per document on the scan queue.
type docEnt struct {
	id   int64
	sec  int64
	nsec int32
	body span
}

// fieldPair is one distinct field pair a shard has stored: interned key and
// value spans. Documents refer to pairs by index (shard.fieldIDs), so a
// document's metadata costs four bytes per field and reading one field of
// many documents walks a table that stays in cache.
type fieldPair struct {
	k span
	v span
}

// bodyEntry memoizes one repeated body: the interned body span and the
// resolved posting list of each deduplicated token. A memo hit indexes a
// document without copying the body again — under exact repeats, a storm
// or a heartbeat, each text is copied into the arena twice and never after.
type bodyEntry struct {
	body  span
	lists []*postings
}

// fieldEntry memoizes one distinct field pair: its index in shard.pairs
// plus the pair's resolved posting list. A memo hit turns addField's
// steady state — three string-map probes (key intern, value intern,
// field-postings lookup) per field per document — into a single probe
// followed by two in-place appends.
type fieldEntry struct {
	id   uint32
	post *postings
}

// shard is one index partition. All access goes through its lock.
type shard struct {
	mu sync.RWMutex
	// nextID is the id the next document indexed here gets; it starts at
	// the shard's index and advances by stride (the shard count), so
	// id % stride names the shard. Ids are handed out under mu, in append
	// order: ents is sorted by id by construction, which is what offByID's
	// binary search relies on. Compact keeps the sequence.
	nextID int64
	stride int64
	// ents holds the stored documents; fieldIDs their field pairs as
	// indexes into pairs, contiguous per document, document off's ending
	// at fEnds[off] (and starting where off-1's end). fEnds is a column of
	// its own so that reading one field of scattered documents touches
	// two small dense arrays and never the 32-byte ents rows. All four are
	// pointer-free. A pair re-memoized after a fieldMemo reset gets a
	// second index, so equal spans — not equal indexes — mean equal pairs.
	// pairPost[id] is the posting list pairs[id] is indexed under: two pairs
	// share a list exactly when Term treats them as equal (appendFieldKey).
	ents     []docEnt
	fEnds    []uint32
	fieldIDs []uint32
	pairs    []fieldPair
	pairPost []*postings
	// arena owns every retained byte: bodies, field keys and values.
	arena arena
	// text finds a body token's posting list, field a pair's by its
	// appendFieldKey (terms.go). Neither holds a pointer or a key: a
	// lowercase token's key is its place in the interned body, a folded
	// token and a field key are copied into the arena once.
	text  termTable
	field termTable
	// bodyMemo caches the interned span and resolved posting lists of each
	// body seen twice, keyed by the arena-backed body view: an exact repeat
	// (a storm, a heartbeat, Zipf traffic) skips the arena copy,
	// tokenization and the per-token map probes entirely — one lookup, then
	// one in-place append per list. What repeats in templated traffic is the
	// template, not the text, so a body is admitted only on its second sight
	// (bodiesSeen holds the first): a stream of distinct bodies leaves the
	// memo empty. Cleared wholesale when it reaches maxBodyMemo entries.
	bodyMemo   map[string]bodyEntry
	bodiesSeen seen.Set
	// intern dedups field keys and values, keyed by the arena-backed view.
	// Syslog metadata draws from tiny vocabularies (hostnames, apps,
	// severities), so steady-state field storage is a map hit per pair.
	intern map[string]span
	// fieldMemo caches each distinct (key, value) pair's interned spans and
	// posting list, keyed by the exact-case "key\x00value" bytes (arena
	// view). It collapses the per-field triple map probe into one lookup —
	// on the profile that triple was the single largest consumer of the
	// index stage. Cleared wholesale at maxBodyMemo entries, like bodyMemo.
	fieldMemo map[string]fieldEntry
	// chunkBlocks backs the shard's posting chunks; nChunks is the global
	// allocation cursor (see arena.go). postBlocks/nPost do the same for
	// the postings headers themselves; nInline of the nPost lists live in
	// their header.
	chunkBlocks [][]pchunk
	nChunks     int32
	postBlocks  [][]postings
	nPost       int32
	nInline     int32
	// dead holds tombstoned offsets awaiting Compact.
	dead map[int32]struct{}
	// tokScratch, listScratch, keyScratch and lowScratch are reused across
	// indexLocked calls (always under the write lock) so indexing allocates
	// neither a token slice, a list slice nor a field-key string per doc:
	// listScratch stages a body's lists until the memo admits it, keyScratch
	// the exact-case memo key, lowScratch the folded postings key.
	tokScratch  []string
	listScratch []*postings
	keyScratch  []byte
	lowScratch  []byte
	// memoHits/memoMisses count bodyMemo outcomes, for Stats.
	memoHits   int64
	memoMisses int64

	// gen counts the changes that are not appends — tombstones and
	// compactions; a view built under an older gen restarts (view.go).
	gen uint64
	// vmu guards views, every view's busy flag, and keysSeen, the keys read
	// once and kept no view yet. Readers share the read lock, so views need
	// a lock of their own; it is taken inside mu, never around it. reads is
	// the store's count of how reads found their views.
	vmu      sync.Mutex
	views    map[string]*view
	keysSeen seen.Set
	reads    *viewReads
}

// offByID locates a document's offset by binary search over ents, which is
// sorted by id (see shard.nextID).
func (s *shard) offByID(id int64) (int, bool) {
	lo, hi := 0, len(s.ents)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.ents[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.ents) && s.ents[lo].id == id {
		return lo, true
	}
	return -1, false
}

// deleted reports whether the offset is tombstoned. Caller holds a lock.
func (s *shard) deleted(off int32) bool {
	_, ok := s.dead[off]
	return ok
}

// tombstone marks an offset deleted. Caller holds the write lock.
func (s *shard) tombstone(off int32) {
	if s.dead == nil {
		s.dead = make(map[int32]struct{})
	}
	s.dead[off] = struct{}{}
	s.gen++
}

func newShard(idx, stride int64) *shard {
	return &shard{
		nextID:     idx,
		stride:     stride,
		bodyMemo:   make(map[string]bodyEntry),
		bodiesSeen: seen.New(maxBodyMemo),
		intern:     make(map[string]span),
		fieldMemo:  make(map[string]fieldEntry),
		keysSeen:   seen.New(maxSeen),
	}
}

// docFields returns the pair indexes of the document at off.
func (s *shard) docFields(off int32) []uint32 {
	start := uint32(0)
	if off > 0 {
		start = s.fEnds[off-1]
	}
	return s.fieldIDs[start:s.fEnds[off]]
}

// fillDoc materializes the document at off into d, reusing d.Fields'
// backing array. The strings are arena views — stable for the shard's
// lifetime, but d must not outlive the arena (i.e. survive past Compact);
// hot scan loops reuse one scratch Doc per query, and anything handed to
// a caller goes through docCopy instead.
func (s *shard) fillDoc(off int32, d *Doc) {
	e := &s.ents[off]
	d.ID = e.id
	d.Time = time.Unix(e.sec, int64(e.nsec)).UTC()
	d.Body = s.arena.view(e.body)
	fs := d.Fields[:0]
	for _, id := range s.docFields(off) {
		fp := s.pairs[id]
		fs = append(fs, Field{K: s.arena.view(fp.k), V: s.arena.view(fp.v)})
	}
	d.Fields = fs
}

// docCopy materializes the document at off with a freshly allocated
// Fields slice, safe to hand outside the shard lock. The strings remain
// zero-copy arena views (immutable, alive as long as anything references
// them — each view retains its block).
func (s *shard) docCopy(off int32) Doc {
	var d Doc
	if n := len(s.docFields(off)); n > 0 {
		d.Fields = make(Fields, 0, n)
	}
	s.fillDoc(off, &d)
	return d
}

// entBefore reports whether the document at off has Time < cutoff,
// straight off the stored (sec, nsec) pair — no Doc materialization.
func (s *shard) entBefore(off int32, cutSec int64, cutNsec int32) bool {
	e := &s.ents[off]
	return e.sec < cutSec || (e.sec == cutSec && e.nsec < cutNsec)
}

// appendFieldKey appends the field-postings key — len(field), field, then
// value with ASCII letters lowercased — to dst and returns it. The length
// prefix keeps the key unambiguous whatever bytes field and value hold,
// and the fold is exactly equalFold's, so two pairs share a posting list
// precisely when Term treats them as equal. It allocates nothing: index
// inserts build into the shard's lowScratch, Term lookups into a stack
// buffer.
func appendFieldKey(dst []byte, field, value string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(field)))
	dst = append(dst, field...)
	for i := 0; i < len(value); i++ {
		c := value[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// index assigns d the shard's next id and adds it; the caller holds the
// write lock.
func (s *shard) index(d Doc) int64 {
	d.ID = s.nextID
	s.nextID += s.stride
	s.indexLocked(d)
	return d.ID
}

// indexLocked adds a document under the id it carries, copying every
// retained byte into the shard's arena; the caller holds the write lock
// (or owns the shard exclusively, as Compact does) and keeps ownership of
// d's strings.
func (s *shard) indexLocked(d Doc) {
	off := int32(len(s.ents))
	e := docEnt{
		id:   d.ID,
		sec:  d.Time.Unix(),
		nsec: int32(d.Time.Nanosecond()),
	}
	if be, ok := s.bodyMemo[d.Body]; ok {
		// Memoized body: reuse the interned text and the already-resolved
		// posting lists — no copy, no tokenization, no map probes.
		s.memoHits++
		e.body = be.body
		for _, p := range be.lists {
			s.postAppend(p, off)
		}
	} else {
		s.memoMisses++
		e.body = s.indexBody(d.Body, off)
	}
	docStart := uint32(len(s.fieldIDs))
	for _, fv := range d.Fields {
		s.addField(fv.K, fv.V, off, docStart)
	}
	s.ents = append(s.ents, e)
	s.fEnds = append(s.fEnds, uint32(len(s.fieldIDs)))
}

// indexBody copies a body the shard has not memoized into the arena,
// analyzes it and adds its text postings. On the body's second sight it
// also memoizes the interned span and resolved lists for the repeats to
// come; a first sight allocates nothing beyond new terms' lists. Returns
// the body's span.
func (s *shard) indexBody(body string, off int32) span {
	bsp := s.arena.copy(body)
	view := s.arena.view(bsp)
	// Tokenize the arena view, not the caller's body: lowercase-ASCII
	// tokens are substrings of it, so a new term's key is its place in
	// the interned body.
	s.tokScratch = AnalyzeInto(view, s.tokScratch[:0])
	toks := s.tokScratch
	lists := s.listScratch[:0]
	if len(toks) <= maxScanDedup {
		// Typical syslog bodies: a handful of tokens, so a nested scan
		// dedups without the per-doc map allocation.
		for i, tok := range toks {
			dup := false
			for _, prev := range toks[:i] {
				if prev == tok {
					dup = true
					break
				}
			}
			if !dup {
				lists = append(lists, s.addText(tok, off, bsp, view))
			}
		}
	} else {
		dedup := make(map[string]bool, len(toks))
		for _, tok := range toks {
			if !dedup[tok] {
				dedup[tok] = true
				lists = append(lists, s.addText(tok, off, bsp, view))
			}
		}
	}
	s.listScratch = lists
	if !s.bodiesSeen.Again(maphash.String(seenSeed, body)) {
		return bsp
	}
	if len(s.bodyMemo) >= maxBodyMemo {
		// Wholesale reset; the dropped entries' arena bytes stay reserved
		// until the next Compact rebuilds the shard.
		clear(s.bodyMemo)
	}
	s.bodyMemo[view] = bodyEntry{body: bsp, lists: slices.Clone(lists)}
	return bsp
}

// addText appends off to tok's body postings and returns the list; tok is
// a token of the body interned at bsp, whose arena view is view. A known
// term appends in place; a new one takes the next header and keys it by
// textKey.
func (s *shard) addText(tok string, off int32, bsp span, view string) *postings {
	p, fresh := s.termList(&s.text, tok)
	if fresh {
		p.key = s.textKey(tok, bsp, view)
	}
	s.postAppend(p, off)
	return p
}

// internStr returns an arena span holding v's bytes, copying them in only
// the first time a distinct value is seen.
func (s *shard) internStr(v string) span {
	if len(v) == 0 {
		return span{}
	}
	if sp, ok := s.intern[v]; ok {
		return sp
	}
	sp := s.arena.copy(v)
	s.intern[s.arena.view(sp)] = sp
	return sp
}

// appendRawFieldKey appends the exact-case memo key — len(field), field,
// value — to dst: no case folding, because the memo keys on the bytes as
// the caller sent them (two casings of one value memoize separately but
// share the fold-insensitive posting list).
func appendRawFieldKey(dst []byte, field, value string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(field)))
	dst = append(dst, field...)
	return append(dst, value...)
}

// addField records the pair's index and appends off to the field=value
// postings; docStart is where this document's pairs begin in fieldIDs.
// The steady state — a pair the shard has already stored, i.e. every field
// of every canonical doc — is one fieldMemo probe and two in-place
// appends, allocation-free. Only a brand-new pair runs the full intern +
// fold + term-table path, and every key it stores is in the arena, so even
// the miss path adds no standalone heap strings.
//
// A pair whose key the document already carries is stored (Get returns the
// document as it was sent) but not indexed: Fields.Get and Term see only
// the first pair of a key. That, with appendFieldKey's fold, makes a field
// posting list exactly the set of documents its Term matches — offsets
// ascending, no duplicates — so the read path never re-checks a Term
// against the stored pairs.
func (s *shard) addField(f, v string, off int32, docStart uint32) {
	s.keyScratch = appendRawFieldKey(s.keyScratch[:0], f, v)
	fe, ok := s.fieldMemo[string(s.keyScratch)]
	if !ok {
		fe.id = uint32(len(s.pairs))
		s.pairs = append(s.pairs, fieldPair{k: s.internStr(f), v: s.internStr(v)})
		s.lowScratch = appendFieldKey(s.lowScratch[:0], f, v)
		low := unsafe.String(unsafe.SliceData(s.lowScratch), len(s.lowScratch))
		var fresh bool
		if fe.post, fresh = s.termList(&s.field, low); fresh {
			fe.post.key = s.arena.newKey(low)
		}
		s.pairPost = append(s.pairPost, fe.post)
		if len(s.fieldMemo) >= maxBodyMemo {
			clear(s.fieldMemo)
		}
		s.fieldMemo[s.arena.view(s.arena.copyBytes(s.keyScratch))] = fe
	}
	key, shadowed := s.pairs[fe.id].k, false
	for _, id := range s.fieldIDs[docStart:] {
		if s.pairs[id].k == key {
			shadowed = true
			break
		}
	}
	s.fieldIDs = append(s.fieldIDs, fe.id)
	if !shadowed {
		s.postAppend(fe.post, off)
	}
}

// fieldPostings returns the posting list for field=value, building the
// key in a stack buffer so the Term query path does not allocate.
func (s *shard) fieldPostings(field, value string) *postings {
	var buf [64]byte
	k := appendFieldKey(buf[:0], field, value)
	return s.lookup(&s.field, unsafe.String(unsafe.SliceData(k), len(k)))
}

// maxScanDedup bounds the quadratic scan dedup during indexing; larger
// token lists (pathological mega-lines) fall back to a map.
const maxScanDedup = 128

// maxBodyMemo caps each shard's body memo (a few MB at worst) and sizes
// the table of bodies seen once (32 KiB); a shard seeing more distinct
// bodies than this drops the memo and rebuilds it from the traffic that
// follows.
const maxBodyMemo = 4096

// Store is the sharded index.
type Store struct {
	shards []*shard
	// cursor deals documents to shards round-robin. It only routes; ids
	// come from the shard a document lands on (shard.nextID).
	cursor atomic.Uint64

	// Observability (see Instrument). All fields are nil until a
	// registry is attached; obs metrics no-op on nil, and latency timing
	// is additionally gated so an uninstrumented store never calls
	// time.Now on the index or query paths.
	indexTotal    *obs.Counter
	indexLat      *obs.Histogram
	indexBatchLat *obs.Histogram
	querySearch   *obs.Counter
	queryCount    *obs.Counter
	queryHist     *obs.Counter
	queryTerms    *obs.Counter
	queryPivot    *obs.Counter
	queryLat      *obs.Histogram
	queryCands    *obs.Histogram
	materialized  *obs.Counter

	// viewReads counts, across shards, how per-shard reads found their
	// views. It counts with or without a registry; Instrument publishes it.
	viewReads viewReads
}

// candidateBuckets spans one entry to a 16M-entry store in powers of four.
var candidateBuckets = []float64{1, 4, 16, 64, 256, 1 << 10, 1 << 12, 1 << 14,
	1 << 16, 1 << 18, 1 << 20, 1 << 22, 1 << 24}

// Instrument publishes the store's metrics — index/query counters and
// latency histograms, plus docs and memory gauges — into r. Call it once,
// before concurrent use (typically right after New). A nil registry is a
// no-op.
func (st *Store) Instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	st.indexTotal = r.Counter("store_index_total", "documents indexed")
	st.indexLat = r.Histogram("store_index_seconds",
		"per-document index latency", obs.LatencyBuckets)
	st.indexBatchLat = r.Histogram("store_index_batch_seconds",
		"per-batch IndexBatch latency (the index stage of the per-stage profile)",
		obs.LatencyBuckets)
	st.querySearch = r.Counter(`store_query_total{op="search"}`,
		"queries served, by operation")
	st.queryCount = r.Counter(`store_query_total{op="count"}`,
		"queries served, by operation")
	st.queryHist = r.Counter(`store_query_total{op="datehist"}`,
		"queries served, by operation")
	st.queryTerms = r.Counter(`store_query_total{op="terms"}`,
		"queries served, by operation")
	st.queryPivot = r.Counter(`store_query_total{op="pivot"}`,
		"queries served, by operation")
	st.queryLat = r.Histogram("store_query_seconds",
		"query latency across all operations", obs.LatencyBuckets)
	st.queryCands = r.Histogram("store_query_candidates",
		"index entries walked per query, summed over shards, across all operations; "+
			"a read answered from a kept view walks only the entries appended since",
		candidateBuckets)
	st.materialized = r.Counter("store_docs_materialized_total",
		"documents copied out of the arenas for Search hits and Get")
	r.GaugeFunc("store_docs", "live documents in the index",
		func() int64 { return int64(st.Count()) })
	r.GaugeFunc("store_arena_bytes", "bytes reserved by the shard string arenas",
		func() int64 { return st.Stats().ArenaBytes })
	r.GaugeFunc("store_posting_chunks", "posting-list chunks allocated across shards",
		func() int64 { return st.Stats().PostingChunks })
	r.GaugeFunc("store_posting_bytes", "bytes reserved by posting chunk and header blocks",
		func() int64 { return st.Stats().PostingBytes })
	r.GaugeFunc("store_inline_postings", "posting lists held in their header, owning no chunk",
		func() int64 { return st.Stats().InlinePostings })
	r.GaugeFunc("store_term_table_bytes", "bytes reserved by the term dictionaries' slot arrays",
		func() int64 { return st.Stats().TermTableBytes })
	r.GaugeFuncFloat("store_body_memo_hit_ratio",
		"fraction of indexed docs whose body was already interned",
		func() float64 { return st.Stats().BodyMemoHitRatio() })
	r.GaugeFunc("store_body_memo_entries", "repeated bodies memoized across shards (each admitted on its second sight)",
		func() int64 { return st.Stats().BodyMemoEntries })
	r.GaugeFunc("store_views", "incremental read views kept across shards",
		func() int64 { return st.Stats().Views })
	vr := &st.viewReads
	vr.hits = adopt(r, vr.hits, "store_view_hits_total",
		"per-shard reads that extended a kept view by the documents appended since")
	vr.misses = adopt(r, vr.misses, "store_view_misses_total",
		"per-shard reads that found no view to extend and walked from offset 0")
	vr.resets = adopt(r, vr.resets, "store_view_resets_total",
		"per-shard reads whose view a delete or Compact restarted from offset 0")
}

// adopt registers a counter under name in r carrying c's count so far.
func adopt(r *obs.Registry, c *obs.Counter, name, help string) *obs.Counter {
	n := r.Counter(name, help)
	n.Add(c.Value())
	return n
}

// observeQuery records one query of the given op; it returns immediately
// when the store is uninstrumented.
func (st *Store) observeQuery(op *obs.Counter, start time.Time) {
	op.Inc()
	if st.queryLat != nil {
		st.queryLat.ObserveDuration(time.Since(start))
	}
}

// queryStart returns the wall clock only when latency is being measured,
// keeping time.Now off the uninstrumented path.
func (st *Store) queryStart() time.Time {
	if st.queryLat == nil {
		return time.Time{}
	}
	return time.Now()
}

// New creates a store with the given shard count (default 4 when n <= 0,
// matching a small OpenSearch deployment).
func New(nShards int) *Store {
	if nShards <= 0 {
		nShards = 4
	}
	st := &Store{shards: make([]*shard, nShards)}
	st.viewReads = viewReads{hits: obs.NewCounter(), misses: obs.NewCounter(), resets: obs.NewCounter()}
	for i := range st.shards {
		st.shards[i] = newShard(int64(i), int64(nShards))
		st.shards[i].reads = &st.viewReads
	}
	return st
}

// NumShards returns the shard count.
func (st *Store) NumShards() int { return len(st.shards) }

// Index stores a document and returns its assigned id. Documents are dealt
// to shards round-robin, so time ranges spread evenly, and the shard
// assigns the id under its own lock (id % NumShards names the shard). The
// caller keeps ownership of d's strings.
func (st *Store) Index(d Doc) int64 {
	var start time.Time
	if st.indexLat != nil {
		start = time.Now()
	}
	sh := st.shards[(st.cursor.Add(1)-1)%uint64(len(st.shards))]
	sh.mu.Lock()
	id := sh.index(d)
	sh.mu.Unlock()
	st.indexTotal.Inc()
	if st.indexLat != nil {
		st.indexLat.ObserveDuration(time.Since(start))
	}
	return id
}

// IndexBatch stores a batch of documents, writes each assigned id into the
// caller's slice (docs[i].ID) and returns docs[0]'s (-1 for an empty
// batch). Ids are dense across the store; a single writer sees them
// consecutive within a batch, concurrent writers may interleave. One
// cursor reservation routes the whole batch and each shard's write lock is
// taken once per batch instead of once per document, so a flushed pipeline
// batch reaches the postings with a handful of lock operations total.
//
// The store copies everything it retains, so when IndexBatch returns the
// caller may recycle the docs, their Fields slices, and the pooled
// messages whose slabs back the strings.
func (st *Store) IndexBatch(docs []Doc) (firstID int64) {
	if len(docs) == 0 {
		return -1
	}
	var start time.Time
	if st.indexBatchLat != nil {
		start = time.Now()
	}
	n := uint64(len(docs))
	nsh := uint64(len(st.shards))
	base := st.cursor.Add(n) - n
	if n >= parallelBatchMin*nsh && nsh > 1 {
		st.indexParallel(docs, base)
	} else {
		for si := uint64(0); si < nsh && si < n; si++ {
			st.indexStripe(docs, base, si)
		}
	}
	st.indexTotal.Add(int64(len(docs)))
	if st.indexBatchLat != nil {
		st.indexBatchLat.ObserveDuration(time.Since(start))
	}
	return docs[0].ID
}

// parallelBatchMin is the per-shard stripe size (docs per shard) at which
// IndexBatch fans the stripes out to goroutines instead of walking them
// serially.
const parallelBatchMin = 8

// indexParallel indexes the batch's shard stripes concurrently. Stripes
// share nothing — each touches exactly one shard under that shard's own
// lock and writes only its own docs' IDs. It lives in its own function
// (not inline in IndexBatch) so the WaitGroup and goroutine closures,
// which escape, are only allocated when a batch is actually large enough
// to fan out; small flushes stay on IndexBatch's serial, allocation-free
// path.
func (st *Store) indexParallel(docs []Doc, base uint64) {
	var wg sync.WaitGroup
	for si := range st.shards {
		wg.Add(1)
		go func(si uint64) {
			defer wg.Done()
			st.indexStripe(docs, base, si)
		}(uint64(si))
	}
	wg.Wait()
}

// indexStripe indexes docs[si], docs[si+nsh], ... — doc i of a batch routes
// to shard (base+i) % nsh, so a stripe is exactly one shard's share.
func (st *Store) indexStripe(docs []Doc, base, si uint64) {
	nsh := uint64(len(st.shards))
	sh := st.shards[(base+si)%nsh]
	cnt := 0
	nf := 0
	for i := si; i < uint64(len(docs)); i += nsh {
		cnt++
		nf += len(docs[i].Fields)
	}
	sh.mu.Lock()
	// Grow the flat arrays once for the whole batch share instead of
	// amortizing inside the append loops.
	if need := len(sh.ents) + cnt; need > cap(sh.ents) {
		grown := make([]docEnt, len(sh.ents), need+need/4)
		copy(grown, sh.ents)
		sh.ents = grown
		ends := make([]uint32, len(sh.fEnds), need+need/4)
		copy(ends, sh.fEnds)
		sh.fEnds = ends
	}
	if need := len(sh.fieldIDs) + nf; need > cap(sh.fieldIDs) {
		grown := make([]uint32, len(sh.fieldIDs), need+need/4)
		copy(grown, sh.fieldIDs)
		sh.fieldIDs = grown
	}
	for i := si; i < uint64(len(docs)); i += nsh {
		docs[i].ID = sh.index(docs[i])
	}
	sh.mu.Unlock()
}

// Get returns the document with the given id.
func (st *Store) Get(id int64) (Doc, bool) {
	if id < 0 || len(st.shards) == 0 {
		return Doc{}, false
	}
	sh := st.shards[id%int64(len(st.shards))]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	off, ok := sh.offByID(id)
	if !ok || sh.deleted(int32(off)) {
		return Doc{}, false
	}
	st.materialized.Inc()
	return sh.docCopy(int32(off)), true
}

// Count returns the total number of indexed documents.
func (st *Store) Count() int {
	n := 0
	for _, sh := range st.shards {
		sh.mu.RLock()
		n += len(sh.ents) - len(sh.dead)
		sh.mu.RUnlock()
	}
	return n
}

// Stats summarizes the store, including the memory accounting the arena
// layout makes legible: slab reservation, posting-chunk count, and how
// often the body memo is absorbing repeats.
type Stats struct {
	Docs      int `json:"docs"`
	Shards    int `json:"shards"`
	TextTerms int `json:"text_terms"`
	// ArenaBytes is the total capacity reserved by the shard string
	// arenas (bodies, field keys/values).
	ArenaBytes int64 `json:"arena_bytes"`
	// PostingChunks is the number of fixed-size posting chunks allocated
	// across all shards (each postChunkLen doc offsets).
	PostingChunks int64 `json:"posting_chunks"`
	// PostingBytes is what the index's chunk and postings-header blocks
	// reserve, used or not; InlinePostings counts the lists that live in
	// their header and own no chunk. TermTableBytes is what the term
	// dictionaries that find those lists reserve (their slots; the terms'
	// bytes are in ArenaBytes).
	PostingBytes   int64 `json:"posting_bytes"`
	InlinePostings int64 `json:"inline_postings"`
	TermTableBytes int64 `json:"term_table_bytes"`
	// BodyMemoHits/Misses count indexed docs whose body was/wasn't
	// already interned; BodyMemoEntries is how many bodies the memos hold
	// (each admitted on its second sight).
	BodyMemoHits    int64 `json:"body_memo_hits"`
	BodyMemoMisses  int64 `json:"body_memo_misses"`
	BodyMemoEntries int64 `json:"body_memo_entries"`
	// Views is the number of incremental read views the shards keep. Every
	// per-shard read but an unbounded search is one of: ViewHits, which
	// extended a kept view; ViewMisses, which walked from offset 0 in a new
	// or private view; ViewResets, whose view a delete or Compact restarted.
	Views      int64 `json:"views"`
	ViewHits   int64 `json:"view_hits"`
	ViewMisses int64 `json:"view_misses"`
	ViewResets int64 `json:"view_resets"`
}

// BodyMemoHitRatio returns hits/(hits+misses), 0 when nothing indexed.
func (s Stats) BodyMemoHitRatio() float64 {
	tot := s.BodyMemoHits + s.BodyMemoMisses
	if tot == 0 {
		return 0
	}
	return float64(s.BodyMemoHits) / float64(tot)
}

// Stats reports document, shard, term and memory-accounting counts.
func (st *Store) Stats() Stats {
	s := Stats{
		Shards:     len(st.shards),
		ViewHits:   st.viewReads.hits.Value(),
		ViewMisses: st.viewReads.misses.Value(),
		ViewResets: st.viewReads.resets.Value(),
	}
	for _, sh := range st.shards {
		sh.mu.RLock()
		s.Docs += len(sh.ents) - len(sh.dead)
		s.TextTerms += sh.text.used
		s.ArenaBytes += sh.arena.reserved
		s.PostingChunks += int64(sh.nChunks)
		s.PostingBytes += int64(len(sh.chunkBlocks))*chunkBlockBytes + int64(len(sh.postBlocks))*postBlockBytes
		s.InlinePostings += int64(sh.nInline)
		s.TermTableBytes += sh.text.bytes() + sh.field.bytes()
		s.BodyMemoHits += sh.memoHits
		s.BodyMemoMisses += sh.memoMisses
		s.BodyMemoEntries += int64(len(sh.bodyMemo))
		sh.vmu.Lock()
		s.Views += int64(len(sh.views))
		sh.vmu.Unlock()
		sh.mu.RUnlock()
	}
	return s
}

// String renders a short description.
func (st *Store) String() string {
	s := st.Stats()
	return fmt.Sprintf("tivan: %d docs across %d shards (%d terms)", s.Docs, s.Shards, s.TextTerms)
}
