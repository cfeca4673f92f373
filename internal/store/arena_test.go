package store

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"hetsyslog/internal/raceflag"
)

// recycledDoc builds a Doc whose Body and hostname are unsafe views of
// buf — the shape IndexBatch sees on the zero-garbage ingest path, where
// every string is a window into a pooled listener slab that is recycled
// (overwritten in place) as soon as the batch is indexed.
func recycledDoc(buf []byte, body, host string) Doc {
	view := func(off int, s string) string {
		copy(buf[off:], s)
		return unsafe.String(&buf[off], len(s))
	}
	return Doc{
		Time: time.Unix(42, 0),
		Body: view(0, body),
		Fields: F(
			"tag", "syslog",
			"hostname", view(len(body), host),
			"app", "kernel",
			"severity", "warning",
		),
	}
}

// TestIndexBatchArenaSteadyStateAllocs replays the ownership contract the
// arena-backed store exists to honour: IndexBatch copies everything it
// retains into shard-owned slabs at index time, so (a) indexing a batch
// of recycled-buffer views performs zero steady-state heap allocations —
// the body resolves through bodyMemo, fields through the intern table,
// posting appends bump into chunk slack — and (b) scribbling over the
// caller's buffer afterwards, as the syslog pool does when the next
// datagram reuses the slab, cannot mutate a single stored document.
func TestIndexBatchArenaSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const body = "CPU 3 temperature above threshold, cpu clock throttled"
	const host = "cn042"
	buf := make([]byte, len(body)+len(host))
	doc := recycledDoc(buf, body, host)
	batch := make([]Doc, 8)
	for i := range batch {
		batch[i] = doc
	}

	st := New(1)
	// Warm until doc-slice and posting-chunk growth has enough slack that
	// the measured window never grows (same budget as the canonical-doc
	// steady-state test).
	for i := 0; i < 4608/len(batch); i++ {
		st.IndexBatch(batch)
	}
	if n := testing.AllocsPerRun(20, func() {
		st.IndexBatch(batch)
	}); n != 0 {
		t.Errorf("IndexBatch allocs/op over recycled views = %v, want 0", n)
	}

	// Recycle the buffer: every byte the caller handed in is overwritten.
	for i := range buf {
		buf[i] = 'x'
	}

	total := st.Count()
	if got := st.CountQuery(Term{Field: "hostname", Value: host}); got != total {
		t.Fatalf("after recycling the input buffer: hostname term matches %d of %d docs", got, total)
	}
	hits := st.Search(SearchRequest{Query: Match{Text: "throttled"}, Size: 1})
	if len(hits) != 1 {
		t.Fatalf("after recycling the input buffer: body match found %d hits, want 1", len(hits))
	}
	if hits[0].Doc.Body != body {
		t.Errorf("stored body mutated by buffer recycling:\n got %q\nwant %q", hits[0].Doc.Body, body)
	}
	if v, _ := hits[0].Doc.Fields.Get("hostname"); v != host {
		t.Errorf("stored hostname mutated by buffer recycling: got %q, want %q", v, host)
	}
}

// TestStoreStatsMemoryAccounting checks the memory fields of Stats: slab
// bytes grow with the corpus, the postings substrate is accounted list by
// list (a list of up to two documents owns no chunk, a longer one owns
// ceil(n/16)), reserved bytes are whole blocks, and the body memo's hit
// ratio reflects a Zipf-shaped workload (identical bodies resolve through
// the memo after first sight).
func TestStoreStatsMemoryAccounting(t *testing.T) {
	st := New(2)
	batch := make([]Doc, 64)
	for i := range batch {
		buf := make([]byte, 80)
		batch[i] = recycledDoc(buf, "link down on port eth0", "cn001")
	}
	st.IndexBatch(batch)
	st.IndexBatch(batch)
	// Per shard: 64 documents in each of 9 lists (5 body tokens, 4 fields).
	const lists, chunksPerList = 2 * 9, 64 / postChunkLen
	const blockBytes = chunkBlockBytes + postBlockBytes

	s := st.Stats()
	if s.Docs != 128 {
		t.Fatalf("Docs = %d, want 128", s.Docs)
	}
	if s.ArenaBytes <= 0 {
		t.Errorf("ArenaBytes = %d, want > 0", s.ArenaBytes)
	}
	if s.PostingChunks != lists*chunksPerList || s.InlinePostings != 0 {
		t.Errorf("PostingChunks = %d, InlinePostings = %d; want %d and 0", s.PostingChunks, s.InlinePostings, lists*chunksPerList)
	}
	if s.PostingBytes != 2*blockBytes {
		t.Errorf("PostingBytes = %d, want one chunk block and one header block per shard (%d)", s.PostingBytes, 2*blockBytes)
	}
	// 128 identical bodies across 2 shards: at most one miss per shard.
	if s.BodyMemoMisses > 2 || s.BodyMemoHits < 126 {
		t.Errorf("body memo hits=%d misses=%d over 128 identical bodies", s.BodyMemoHits, s.BodyMemoMisses)
	}
	if r := s.BodyMemoHitRatio(); r < 0.95 || r > 1 {
		t.Errorf("BodyMemoHitRatio = %v, want ~0.98", r)
	}

	// Two documents with a word of their own each (one per shard), then a
	// third sharing the first one's: three lists of one document, of which
	// one grows to two — none of them takes a chunk.
	st.IndexBatch([]Doc{{Body: "alpha"}, {Body: "beta"}, {Body: "alpha"}, {Body: "gamma"}})
	if s := st.Stats(); s.InlinePostings != 3 || s.PostingChunks != lists*chunksPerList {
		t.Errorf("after three rare words: InlinePostings = %d, PostingChunks = %d; want 3 and %d",
			s.InlinePostings, s.PostingChunks, lists*chunksPerList)
	}
	// The third document of a list moves it into a chunk; "delta" is a new
	// inline list.
	st.IndexBatch([]Doc{{Body: "alpha"}, {Body: "delta"}})
	if s := st.Stats(); s.InlinePostings != 3 || s.PostingChunks != lists*chunksPerList+1 {
		t.Errorf("after a word's third document: InlinePostings = %d, PostingChunks = %d; want 3 and %d",
			s.InlinePostings, s.PostingChunks, lists*chunksPerList+1)
	}
}

// TestIndexBytesPerDocCeiling pins what the postings substrate reserves per
// stored document on a corpus shaped like the benchmark's preload — eight
// low-cardinality fields, nine body tokens of which one (the job number)
// occurs in that document only — so a layout regression fails here without
// a benchmark run. Measured 98.3 B/doc (238.7 B/doc with a chunk per list
// and doubling blocks); the ceiling leaves 10 %.
func TestIndexBytesPerDocCeiling(t *testing.T) {
	const docs, ceiling = 60_000, 108.0
	s := dashboardStore(docs).Stats()
	perDoc := float64(s.PostingBytes) / float64(s.Docs)
	t.Logf("posting_bytes/doc = %.1f (%d chunks, %d inline lists, %d terms)", perDoc, s.PostingChunks, s.InlinePostings, s.TextTerms)
	if perDoc > ceiling {
		t.Errorf("posting_bytes/doc = %.1f over %d preload-shaped documents, want <= %.0f", perDoc, docs, ceiling)
	}
	if s.InlinePostings < docs*9/10 {
		t.Errorf("InlinePostings = %d: the %d job numbers should each be a list in its header", s.InlinePostings, docs)
	}
}

// postingsRef is the reference a shard's lists are held to: for every body
// token and every value of the field "k", the ascending offsets of the
// documents carrying it.
type postingsRef map[string][]int32

func buildPostingsRef(docs []Doc) postingsRef {
	ref := postingsRef{}
	for off, d := range docs {
		seen := map[string]bool{}
		for _, tok := range Analyze(d.Body) {
			if !seen[tok] {
				seen[tok] = true
				ref["text:"+tok] = append(ref["text:"+tok], int32(off))
			}
		}
		if v, ok := d.Fields.Get("k"); ok {
			ref["field:"+v] = append(ref["field:"+v], int32(off))
		}
	}
	return ref
}

// checkPostings holds every list of sh to ref three ways — materialized,
// through a cursor asked about every offset, through a cursor asked about
// every seventh (so whole chunks are skipped), each from a handful of
// starting offsets, as a view's delta walk binds them — and the shard's
// chunk and inline-list accounting to what lists of those lengths must own.
func checkPostings(t *testing.T, label string, sh *shard, ref postingsRef, nDocs int) bool {
	t.Helper()
	if got := len(sh.text) + len(sh.field); got != len(ref) {
		t.Errorf("%s: shard holds %d lists, reference %d", label, got, len(ref))
		return false
	}
	var chunks, inline int32
	for name, want := range ref {
		tok, isText := strings.CutPrefix(name, "text:")
		p := sh.text[tok]
		if !isText {
			p = sh.fieldPostings("k", strings.TrimPrefix(name, "field:"))
		}
		if p == nil {
			t.Errorf("%s: no list for %s", label, name)
			return false
		}
		for _, from := range []int{0, 1, postChunkLen + 1, nDocs / 2, nDocs - 1, nDocs} {
			i, _ := slices.BinarySearch(want, int32(from))
			if got := sh.appendPostings(nil, p, int32(from)); !slices.Equal(got, want[i:]) {
				t.Errorf("%s: list %s from %d = %v, reference %v", label, name, from, got, want[i:])
				return false
			}
			for _, stride := range []int{1, 7} {
				cur := sh.postCursor(p, int32(from))
				for off := from; off < nDocs; off += stride {
					_, in := slices.BinarySearch(want, int32(off))
					if cur.contains(int32(off)) != in {
						t.Errorf("%s: cursor over %s from %d (stride %d) says contains(%d) = %v; list %v", label, name, from, stride, off, !in, want)
						return false
					}
				}
			}
		}
		if len(want) <= postInline {
			inline++
		} else {
			chunks += int32((len(want) + postChunkLen - 1) / postChunkLen)
		}
		if !isText {
			key, _ := sh.keySpan("k")
			for _, off := range want {
				if sh.fieldList(off, key) != p {
					t.Errorf("%s: document %d's k pair does not name the list of %s", label, off, name)
					return false
				}
			}
		}
	}
	if sh.nChunks != chunks || sh.nInline != inline {
		t.Errorf("%s: shard owns %d chunks and %d inline lists; lists of these lengths need %d and %d",
			label, sh.nChunks, sh.nInline, chunks, inline)
		return false
	}
	return true
}

// TestQuickPostingsLayouts walks lists through every layout transition —
// empty to one and two documents in the header, the third document's move
// into a chunk, a full chunk linking the next, and (the "wide" tokens: more
// three-document lists than one block has chunks or headers) the first
// element of a second block — and requires appendPostings, postCursor and
// the pair-to-list column to agree with a plain []int32 per list: freshly
// indexed, after Compact rebuilt the shard into its own blocks, after the
// everything-expired reset, and when the reset shard is filled again.
func TestQuickPostingsLayouts(t *testing.T) {
	lengths := []int{1, 2, 3, 4, postChunkLen - 1, postChunkLen, postChunkLen + 1, postChunkLen + 2,
		2 * postChunkLen, 2*postChunkLen + 1, 3*postChunkLen + 2}
	wide := make([]string, chunkBlockLen+40)
	for i := range wide {
		wide[i] = "w" + strconv.Itoa(i)
	}
	wideBody := strings.Join(wide, " ")

	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3*postChunkLen + 2 + rng.Intn(40)
		bodies := make([][]string, n)
		for k := 0; k < 30; k++ {
			length := lengths[rng.Intn(len(lengths))]
			if rng.Intn(3) == 0 {
				length = 1 + rng.Intn(n)
			}
			for _, off := range rng.Perm(n)[:length] {
				bodies[off] = append(bodies[off], "t"+strconv.Itoa(k))
			}
		}
		for _, off := range rng.Perm(n)[:3] {
			bodies[off] = append(bodies[off], wideBody)
		}
		docs := make([]Doc, n)
		for i := range docs {
			docs[i] = Doc{Time: time.Unix(int64(i), 0), Body: strings.Join(bodies[i], " ")}
			if v := rng.Intn(12); v > 0 { // twelve values of very different frequency, or none
				docs[i].Fields = F("k", "v"+strconv.Itoa(rng.Intn(v)))
			}
		}

		st := New(1)
		sh := st.shards[0]
		st.IndexBatch(docs)
		if !checkPostings(t, "fresh", sh, buildPostingsRef(docs), n) {
			return false
		}
		var kept []Doc
		for _, d := range docs {
			if rng.Intn(3) == 0 {
				st.Delete(d.ID)
			} else {
				kept = append(kept, d)
			}
		}
		st.Compact()
		if !checkPostings(t, "compacted", sh, buildPostingsRef(kept), len(kept)) {
			return false
		}
		st.DeleteBefore(time.Unix(int64(n), 0))
		st.Compact()
		if !checkPostings(t, "reset", sh, postingsRef{}, 0) {
			return false
		}
		st.IndexBatch(docs)
		return checkPostings(t, "refilled", sh, buildPostingsRef(docs), n)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
