package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
	"time"

	"hetsyslog/internal/raceflag"
)

// readRequests pairs every read op and its parameters with q.
func readRequests(q Query) []ReadRequest {
	return []ReadRequest{
		{Op: ReadCount, Query: q},
		{Op: ReadHist, Query: q, Interval: 90 * time.Second},
		{Op: ReadHist, Query: q, Interval: -1},
		{Op: ReadTerms, Query: q, Field: "hostname", Size: 3},
		{Op: ReadTerms, Query: q, Field: "a\xffb", Size: -1},
		{Op: ReadSearch, Query: q, Size: 10, SortAsc: true},
		{Op: ReadSearch, Query: q, Size: -1},
	}
}

// sameRequest compares two read requests, their queries by sameQuery.
func sameRequest(a, b ReadRequest) bool {
	qa, qb := a.Query, b.Query
	a.Query, b.Query = nil, nil
	return a == b && sameQuery(qa, qb)
}

// TestQueryWireRoundTrip: a read request decodes to the request encoded,
// for every query shape and every op — the cluster coordinator relies on it
// to forward partition-restricted queries to remote nodes.
func TestQueryWireRoundTrip(t *testing.T) {
	queries := []Query{
		MatchAll{},
		Term{Field: "hostname", Value: "cn101"},
		Term{Field: "hostname", Value: "cn\xff01"},
		Match{Text: "temperature throttled"},
		TimeRange{From: t0, To: t0.Add(time.Hour)},
		TimeRange{From: time.Unix(-1<<21, 7)},
		Bool{
			Must:    []Query{Term{Field: "app", Value: "sshd"}, Match{Text: "closed"}},
			Should:  []Query{Term{Field: "_part", Value: "3"}, Term{Field: "_part", Value: "7"}},
			MustNot: []Query{Match{Text: "preauth"}},
		},
	}
	for seed := int64(1); seed <= 4; seed++ {
		queries = append(queries, diffQueries(rand.New(rand.NewSource(seed)))...)
	}
	for _, q := range queries {
		for _, req := range readRequests(q) {
			back, err := DecodeReadRequest(req.Append(nil))
			if err != nil {
				t.Fatalf("DecodeReadRequest(%+v): %v", req, err)
			}
			if !sameRequest(req, back) {
				t.Errorf("round trip changed request:\n  in  %+v\n  out %+v", req, back)
			}
		}
	}
	// nil encodes as match_all.
	nilReq := ReadRequest{Op: ReadCount}
	back, err := DecodeReadRequest(nilReq.Append(nil))
	if err != nil || !reflect.DeepEqual(back.Query, MatchAll{}) {
		t.Errorf("nil query decoded to %#v, %v", back.Query, err)
	}
}

// TestReadRequestIsViewKey: a request's op, parameters and query are
// written as the store writes a view key, so one encoding of a Query is
// both.
func TestReadRequestIsViewKey(t *testing.T) {
	q := Bool{Must: []Query{Term{Field: "hostname", Value: "cn001"}}, MustNot: []Query{Match{Text: "x"}}}
	key := newViewKey(opCount).query(q)
	defer key.release()
	req := ReadRequest{Op: ReadCount, Query: q}
	if got := req.Append(nil); !bytes.Equal(got[len(readMagic):], key.b) {
		t.Errorf("request %x, view key %x", got, key.b)
	}
}

// nested returns a query of Bools nested depth deep around a MatchAll.
func nested(depth int) Query {
	var q Query = MatchAll{}
	for i := 1; i < depth; i++ {
		q = Bool{Must: []Query{q}}
	}
	return q
}

// queryShape returns a query's nesting depth and node count.
func queryShape(q Query) (depth, nodes int) {
	b, ok := q.(Bool)
	if !ok {
		return 1, 1
	}
	nodes = 1
	for _, clauses := range [][]Query{b.Must, b.Should, b.MustNot} {
		for _, c := range clauses {
			d, n := queryShape(c)
			depth, nodes = max(depth, d), nodes+n
		}
	}
	return depth + 1, nodes
}

// TestReadCodecRejectsCorruptPayloads: truncations, flips and trailing
// bytes must error — a foreign version with the typed ErrCodecVersion, so
// the route answers 415 — never panic or decode partially.
func TestReadCodecRejectsCorruptPayloads(t *testing.T) {
	req := ReadRequest{Op: ReadTerms, Field: "hostname", Size: 5, Query: Bool{
		Must:   []Query{Term{Field: "app", Value: "sshd"}, TimeRange{From: t0}},
		Should: []Query{Match{Text: "closed"}},
	}}
	payload := req.Append(nil)
	for cut := 0; cut < len(payload); cut++ {
		if _, err := DecodeReadRequest(payload[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d decoded successfully", cut, len(payload))
		}
	}
	vflip := append([]byte(nil), payload...)
	vflip[3] = 0x7f
	if _, err := DecodeReadRequest(vflip); !errors.Is(err, ErrCodecVersion) {
		t.Fatalf("version flip error = %v, want ErrCodecVersion", err)
	}
	// count returns a fresh count request's header followed by b.
	count := func(b ...byte) []byte {
		return append(append(readMagic[:], byte(ReadCount)), b...)
	}
	for name, bad := range map[string][]byte{
		"trailing byte":       append(append([]byte(nil), payload...), 0),
		"JSON body":           []byte(`{"query":{"match_all":{}}}`),
		"TVD magic":           EncodeDocs(nil, nil),
		"unknown op":          append(readMagic[:], 9, 'A'),
		"unknown node":        count('X'),
		"empty terms field":   (&ReadRequest{Op: ReadTerms}).Append(nil),
		"flag 2":              append(readMagic[:], byte(ReadSearch), 0, 2, 'A'),
		"negative clauses":    binary.AppendVarint(count('B'), -1),
		"over-claimed clause": binary.AppendVarint(count('B'), 1<<40),
		"stamp of zero time":  append(binary.AppendVarint(count('R', 1), time.Time{}.Unix()), 0, 0),
		"nanos over a second": append(binary.AppendVarint(count('R', 1, 0), 1e9), 0),
		"string past end":     count('M', 5, 'a'),
	} {
		if _, err := DecodeReadRequest(bad); err == nil || errors.Is(err, ErrCodecVersion) {
			t.Errorf("%s: error = %v, want a plain decode error", name, err)
		}
	}
	deep := ReadRequest{Op: ReadCount, Query: nested(MaxQueryDepth)}
	if _, err := DecodeReadRequest(deep.Append(nil)); err != nil {
		t.Errorf("query nested %d deep refused: %v", MaxQueryDepth, err)
	}
	deep.Query = nested(MaxQueryDepth + 1)
	if _, err := DecodeReadRequest(deep.Append(nil)); err == nil {
		t.Errorf("query nested %d deep decoded", MaxQueryDepth+1)
	}
}

// TestReadCodecDecodeAllocsBounded: however many clauses a request claims,
// decoding it costs a bounded multiple of its bytes. The payload is 1 MiB
// of MatchAll clauses under one Bool, each a single byte — the densest a
// request can be — and a claim of more clauses than its bytes can hold must
// be refused before anything is reserved for it.
func TestReadCodecDecodeAllocsBounded(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const clauses = 1 << 20
	build := func(claim int64) []byte {
		p := binary.AppendVarint(append(readMagic[:], byte(ReadCount), 'B'), claim)
		p = append(p, bytes.Repeat([]byte{'A'}, clauses)...)
		return append(p, 0, 0)
	}
	for _, tc := range []struct {
		claim int64
		ok    bool
	}{{clauses, true}, {clauses + 3, false}, {1 << 40, false}} {
		payload := build(tc.claim)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := DecodeReadRequest(payload)
		runtime.ReadMemStats(&after)
		if (err == nil) != tc.ok {
			t.Fatalf("claim %d: error = %v", tc.claim, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 24*uint64(len(payload)) {
			t.Errorf("claim %d: decoding allocated %d bytes (%.0f× the %d-byte payload), want <= 24×",
				tc.claim, got, float64(got)/float64(len(payload)), len(payload))
		}
	}
}

// TestReadAnswerRoundTrip: every answer decodes to what was encoded, byte
// for byte in its strings, and a truncated answer is refused.
func TestReadAnswerRoundTrip(t *testing.T) {
	hits := []Hit{
		{Doc: Doc{ID: 7, Time: t0, Body: "temp \xfe high", Fields: F("hostname", "cn\xff01")}},
		{Doc: Doc{ID: -3, Time: time.Time{}, Body: ""}},
	}
	for _, tc := range []struct {
		op  ReadOp
		ans ReadAnswer
	}{
		{ReadCount, ReadAnswer{Count: 0}},
		{ReadCount, ReadAnswer{Count: 1 << 40}},
		{ReadHist, ReadAnswer{}},
		{ReadHist, ReadAnswer{Buckets: []HistogramBucket{
			{Start: time.Unix(-90, 0).UTC(), Count: 2}, {Start: t0, Count: 1}, {Start: time.Unix(5, 999_999_999).UTC(), Count: 1 << 33}}}},
		{ReadTerms, ReadAnswer{}},
		{ReadTerms, ReadAnswer{Terms: []TermBucket{{Value: "cn\xff01", Count: 4}, {Value: "", Count: 1}}}},
		{ReadSearch, ReadAnswer{}},
		{ReadSearch, ReadAnswer{Hits: hits}},
	} {
		payload := AppendReadAnswer(nil, tc.op, &tc.ans)
		got, err := DecodeReadAnswer(tc.op, payload)
		if err != nil {
			t.Fatalf("op %d: %v", tc.op, err)
		}
		if tc.op == ReadSearch {
			if len(got.Hits) != len(tc.ans.Hits) {
				t.Fatalf("search answer has %d hits, want %d", len(got.Hits), len(tc.ans.Hits))
			}
			for i := range got.Hits {
				g, w := got.Hits[i].Doc, tc.ans.Hits[i].Doc
				if g.ID != w.ID || !g.Time.Equal(w.Time) || g.Body != w.Body || !reflect.DeepEqual(g.Fields, w.Fields) {
					t.Errorf("hit %d = %+v, want %+v", i, g, w)
				}
			}
		} else if !reflect.DeepEqual(got, tc.ans) {
			t.Errorf("op %d answer = %+v, want %+v", tc.op, got, tc.ans)
		}
		for cut := 0; cut < len(payload); cut++ {
			if _, err := DecodeReadAnswer(tc.op, payload[:cut]); err == nil {
				t.Fatalf("op %d: truncation at %d of %d decoded", tc.op, cut, len(payload))
			}
		}
	}
}

// postRead sends a binary read request to h and returns the status and
// body.
func postRead(h http.Handler, payload []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/read", bytes.NewReader(payload)))
	return rec.Code, rec.Body.Bytes()
}

// TestReadRoute: POST /read answers each read as the store does, and
// refuses a payload with 400, 415 or 413 as the doc codec's route does.
func TestReadRoute(t *testing.T) {
	st := New(2)
	seed(st)
	h := st.Handler()
	q := Term{Field: "hostname", Value: "cn101"}
	want := map[ReadOp]ReadAnswer{
		ReadCount:  {Count: st.CountQuery(q)},
		ReadHist:   {Buckets: st.DateHistogramSparse(q, time.Minute)},
		ReadTerms:  {Terms: st.Terms(q, "app", 0)},
		ReadSearch: {Hits: st.Search(SearchRequest{Query: q, Size: 2, SortAsc: true})},
	}
	for op, w := range want {
		req := ReadRequest{Op: op, Query: q, Interval: time.Minute, Field: "app", Size: 2, SortAsc: true}
		if op == ReadTerms {
			req.Size = 0
		}
		status, body := postRead(h, req.Append(nil))
		if status != http.StatusOK {
			t.Fatalf("op %d: status %d: %s", op, status, body)
		}
		got, err := DecodeReadAnswer(op, body)
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if !bytes.Equal(AppendReadAnswer(nil, op, &got), AppendReadAnswer(nil, op, &w)) {
			t.Errorf("op %d answered %+v, want %+v", op, got, w)
		}
	}
	good := (&ReadRequest{Op: ReadCount}).Append(nil)
	vflip := append([]byte(nil), good...)
	vflip[3] = 2
	huge := append(append([]byte(nil), good[:len(good)-1]...), 'M')
	huge = appendCodecString(huge, string(make([]byte, MaxQueryBody)))
	for _, tc := range []struct {
		name    string
		payload []byte
		want    int
	}{
		{"garbage", []byte("not a read"), http.StatusBadRequest},
		{"JSON", []byte(`{"query":{"match_all":{}}}`), http.StatusBadRequest},
		{"foreign version", vflip, http.StatusUnsupportedMediaType},
		{"over MaxQueryBody", huge, http.StatusRequestEntityTooLarge},
	} {
		if status, body := postRead(h, tc.payload); status != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, status, body, tc.want)
		}
	}
}

// FuzzDecodeReadRequest fuzzes the decoder behind every POST /read: it
// never panics; the route answers what it refuses 400, or 415 for a foreign
// version, and what it accepts 200; an accepted query is nested at most
// MaxQueryDepth deep and has no more nodes than the payload has bytes; and
// re-encoding an accepted request decodes to the same request and encodes
// to the same bytes. The seeds are every op over diffQueries, each checked
// to round-trip first.
func FuzzDecodeReadRequest(f *testing.F) {
	for _, q := range diffQueries(rand.New(rand.NewSource(37))) {
		for _, req := range readRequests(q) {
			payload := req.Append(nil)
			back, err := DecodeReadRequest(payload)
			if err != nil || !sameRequest(req, back) {
				f.Fatalf("request %+v decodes to %+v, %v", req, back, err)
			}
			f.Add(payload)
		}
	}
	payload := (&ReadRequest{Op: ReadSearch, Size: 3, Query: Bool{Must: []Query{TimeRange{From: t0}}}}).Append(nil)
	for cut := 0; cut < len(payload); cut++ {
		f.Add(payload[:cut])
	}
	vflip := append([]byte(nil), payload...)
	vflip[3] = 0x7f
	f.Add(vflip)

	st := New(2)
	seed(st)
	h := st.Handler()
	f.Fuzz(func(t *testing.T, payload []byte) {
		req, err := DecodeReadRequest(payload)
		want := http.StatusOK
		switch {
		case errors.Is(err, ErrCodecVersion):
			want = http.StatusUnsupportedMediaType
		case err != nil:
			want = http.StatusBadRequest
		}
		if status, body := postRead(h, payload); status != want {
			t.Fatalf("route answered %d (%s), want %d for decode error %v", status, body, want, err)
		}
		if err != nil {
			return
		}
		if depth, nodes := queryShape(req.Query); depth > MaxQueryDepth || nodes > len(payload) {
			t.Fatalf("%d-byte request decoded to a query %d deep with %d nodes", len(payload), depth, nodes)
		}
		enc := req.Append(nil)
		again, err := DecodeReadRequest(enc)
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if !sameRequest(req, again) {
			t.Fatalf("request %+v re-decodes to %+v", req, again)
		}
		if enc2 := again.Append(nil); !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding is not a fixed point: %x then %x", enc, enc2)
		}
	})
}
