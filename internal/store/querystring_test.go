package store

import (
	"testing"
	"time"
)

func TestParseQueryStringShapes(t *testing.T) {
	// Full text only.
	q, err := ParseQueryString("temperature throttled")
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := q.(Match); !ok || m.Text != "temperature throttled" {
		t.Errorf("parsed = %#v", q)
	}
	// Field terms with '+' space stand-in.
	q, err = ParseQueryString("category:Thermal+Issue app:kernel")
	if err != nil {
		t.Fatal(err)
	}
	b, ok := q.(Bool)
	if !ok || len(b.Must) != 2 {
		t.Fatalf("parsed = %#v", q)
	}
	if tm := b.Must[0].(Term); tm.Field != "category" || tm.Value != "Thermal Issue" {
		t.Errorf("term = %+v", tm)
	}
	// Negation + range.
	q, err = ParseQueryString("-preauth after:2023-07-01T00:00:00Z")
	if err != nil {
		t.Fatal(err)
	}
	b = q.(Bool)
	if len(b.MustNot) != 1 || len(b.Must) != 1 {
		t.Fatalf("parsed = %#v", b)
	}
	// Empty.
	q, _ = ParseQueryString("   ")
	if _, ok := q.(MatchAll); !ok {
		t.Errorf("empty = %#v", q)
	}
	// Errors.
	for _, bad := range []string{"after:notatime", "before:xx", ":novalue", "field:", "cpu\xad"} {
		if _, err := ParseQueryString(bad); err == nil {
			t.Errorf("ParseQueryString(%q) should error", bad)
		}
	}
}

// TestParseQueryStringNegatedFieldTerm: -field:value used to fall
// through to full-text negation, matching the literal text "app:sshd"
// (i.e. nothing) instead of excluding app=sshd documents.
func TestParseQueryStringNegatedFieldTerm(t *testing.T) {
	q, err := ParseQueryString("-app:sshd")
	if err != nil {
		t.Fatal(err)
	}
	b, ok := q.(Bool)
	if !ok || len(b.MustNot) != 1 || len(b.Must) != 0 {
		t.Fatalf("parsed = %#v, want Bool with one MustNot", q)
	}
	tm, ok := b.MustNot[0].(Term)
	if !ok || tm.Field != "app" || tm.Value != "sshd" {
		t.Fatalf("must_not = %#v, want Term{app sshd}", b.MustNot[0])
	}
	// '+' space stand-in applies inside negated values too.
	q, err = ParseQueryString("-category:Thermal+Issue")
	if err != nil {
		t.Fatal(err)
	}
	tm = q.(Bool).MustNot[0].(Term)
	if tm.Value != "Thermal Issue" {
		t.Errorf("negated value = %q, want %q", tm.Value, "Thermal Issue")
	}
	// Bare negation is still full-text.
	q, err = ParseQueryString("-preauth")
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := q.(Bool).MustNot[0].(Match); !ok || m.Text != "preauth" {
		t.Errorf("bare negation = %#v, want Match{preauth}", q.(Bool).MustNot[0])
	}
	// Negating a range bound or writing a malformed field term errors.
	for _, bad := range []string{"-after:2023-07-01T00:00:00Z", "-before:2023-07-01T00:00:00Z", "-app:", "-:sshd"} {
		if _, err := ParseQueryString(bad); err == nil {
			t.Errorf("ParseQueryString(%q) should error", bad)
		}
	}
}

func TestParseQueryStringNegatedFieldAgainstStore(t *testing.T) {
	st := New(2)
	seed(st)
	q, err := ParseQueryString("-hostname:cn101")
	if err != nil {
		t.Fatal(err)
	}
	hits := st.Search(SearchRequest{Query: q, Size: -1})
	if len(hits) == 0 {
		t.Fatal("negated field query matched nothing")
	}
	for _, h := range hits {
		if v, _ := h.Doc.Fields.Get("hostname"); v == "cn101" {
			t.Fatalf("hit %+v should have been excluded", h.Doc)
		}
	}
	if got, want := len(hits)+st.CountQuery(Term{Field: "hostname", Value: "cn101"}), st.Count(); got != want {
		t.Errorf("negation partition: %d + excluded != total %d", got, want)
	}
}

func TestParseQueryStringAgainstStore(t *testing.T) {
	st := New(2)
	seed(st)
	q, err := ParseQueryString("hostname:cn101 -real_memory")
	if err != nil {
		t.Fatal(err)
	}
	hits := st.Search(SearchRequest{Query: q, Size: -1})
	if len(hits) != 2 {
		t.Fatalf("hits = %d, want 2", len(hits))
	}
	q2, err := ParseQueryString("after:" + t0.Add(2*time.Minute).Format(time.RFC3339))
	if err != nil {
		t.Fatal(err)
	}
	if got := st.CountQuery(q2); got != 3 {
		t.Errorf("range query hits = %d", got)
	}
}

// sameQuery reports whether two queries are equal node for node: instants
// compare with Equal (a JSON round trip keeps the instant and the offset,
// not the *Location), and a nil clause list equals an empty one.
func sameQuery(a, b Query) bool {
	switch x := a.(type) {
	case nil, MatchAll:
		switch b.(type) {
		case nil, MatchAll:
			return true
		}
		return false
	case Term:
		y, ok := b.(Term)
		return ok && x == y
	case Match:
		y, ok := b.(Match)
		return ok && x == y
	case TimeRange:
		y, ok := b.(TimeRange)
		return ok && x.From.Equal(y.From) && x.To.Equal(y.To)
	case Bool:
		y, ok := b.(Bool)
		if !ok {
			return false
		}
		for _, pair := range [][2][]Query{{x.Must, y.Must}, {x.Should, y.Should}, {x.MustNot, y.MustNot}} {
			if len(pair[0]) != len(pair[1]) {
				return false
			}
			for i := range pair[0] {
				if !sameQuery(pair[0][i], pair[1][i]) {
					return false
				}
			}
		}
		return true
	}
	return false
}

// checkRoundTrip requires a parsed query to survive the binary read
// request a cluster coordinator forwards it in — restricted to partitions,
// as the coordinator sends it — and decode back to an equal query: what a
// node answers is the query the front was asked.
func checkRoundTrip(t *testing.T, q Query) {
	t.Helper()
	fwd := Bool{Must: []Query{q}, Should: []Query{Term{Field: "_part", Value: "3"}}}
	req := ReadRequest{Op: ReadCount, Query: fwd}
	back, err := DecodeReadRequest(req.Append(nil))
	if err != nil {
		t.Fatalf("forwarded query %#v does not decode: %v", q, err)
	}
	if !sameQuery(fwd, back.Query) {
		t.Fatalf("query %#v is forwarded as %#v", fwd, back.Query)
	}
}

// queryStrings renders the differential suite's query shapes in the query
// string language, as far as it can express them, plus its edge cases.
func queryStrings() []string {
	from := time.Unix(1700000000, 0).UTC().Format(time.RFC3339)
	return []string{
		"", "   ", "temperature", "Temperature THRESHOLD", "élevée", " ,; ",
		"hostname:cn001", "hostname:CN001", "HOSTNAME:cn001", "hostname:nœud7", "rack:ラック",
		"category:Thermal+Issue app:kernel", "-preauth", "-app:sshd", "-category:Thermal+Issue",
		"after:" + from, "before:" + from, "after:2023-07-01T00:00:00+02:00 before:2023-07-02T00:00:00Z",
		"temperature app:sshd -hostname:cn001 after:" + from,
		"-temperature -rack:r1", "a:b:c", "-", "--x", "after:notatime", ":novalue", "field:", "-app:", "-:sshd",
		"\xad", "hostname:cn\xff01", // not UTF-8: refused, as JSON would rewrite them
	}
}

// FuzzParseQueryString fuzzes the GET /search query language: it never
// panics, and whatever it accepts survives the coordinator's binary hop.
func FuzzParseQueryString(f *testing.F) {
	for _, s := range queryStrings() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		q, err := ParseQueryString(s)
		if err != nil {
			return
		}
		checkRoundTrip(t, q)
	})
}

// FuzzParseQuery fuzzes the JSON query DSL every query endpoint decodes:
// it never panics, and whatever it accepts survives the binary read request
// a coordinator forwards it in. The first seeds are diffQueries' shapes.
func FuzzParseQuery(f *testing.F) {
	for _, raw := range []string{
		`{"match_all":{}}`,
		`{"term":{"field":"hostname","value":"gpu01"}}`,
		`{"term":{"field":"hostname","value":"CN001"}}`,
		`{"term":{"field":"HOSTNAME","value":"cn001"}}`,
		`{"term":{"field":"hostname","value":"k"}}`,
		`{"term":{"field":"hostname","value":"nœud7"}}`,
		`{"term":{"field":"hostname","value":""}}`,
		`{"term":{"field":"missing","value":"x"}}`,
		`{"term":{"field":"a\u0000b","value":"sshd"}}`,
		`{"term":{"field":"a","value":"b\u0000sshd"}}`,
		`{"match":{"text":"temperature"}}`,
		`{"match":{"text":"Temperature THRESHOLD"}}`,
		`{"match":{"text":"élevée"}}`,
		`{"match":{"text":"temperature 3"}}`,
		`{"match":{"text":"tokens matching nothing whatsoever"}}`,
		`{"match":{"text":" ,; "}}`,
		`{"range":{"from":"2023-11-14T22:13:20Z"}}`,
		`{"range":{"to":"2023-11-14T22:13:20Z"}}`,
		`{"range":{"from":"1969-12-07T17:25:52Z","to":"2023-11-14T22:13:20Z"}}`,
		`{"range":{"from":"2023-11-14T22:13:21Z","to":"2023-11-14T22:13:23Z"}}`,
		`{"bool":{"must":[{"match_all":{}}],"should":[{"term":{"field":"_part","value":"1"}},{"term":{"field":"_part","value":"99"}}]}}`,
		`{"bool":{"must":[{"term":{"field":"hostname","value":"gpu01"}}],"should":[{"term":{"field":"_part","value":"0"}},{"term":{"field":"_part","value":"4"}}]}}`,
		`{"bool":{"must":[{"bool":{"must":[{"match":{"text":"temperature"}},{"range":{"from":"2023-11-14T22:13:20Z"}}]}}],"should":[{"term":{"field":"_part","value":"99"}}]}}`,
		`{"bool":{"must":[{"match":{"text":"temperature"}},{"term":{"field":"app","value":"sshd"}}],"must_not":[{"term":{"field":"hostname","value":"cn001"}}]}}`,
		`{"bool":{"must_not":[{"match":{"text":"temperature"}},{"term":{"field":"rack","value":"r1"}}]}}`,
		`{"bool":{"should":[{"match":{"text":"throttled"}},{"term":{"field":"app","value":"sshd"}}]}}`,
		`{"bool":{"should":[{"match":{"text":"cpu temperature"}},{"bool":{"must":[{"term":{"field":"hostname","value":"mgmt"}}],"must_not":[{"term":{"field":"rack","value":"r0"}}]}}]}}`,
		`{"bool":{"should":[{"term":{"field":"rack","value":"r2"}},{"range":{"to":"2023-11-14T22:13:20Z"}}]}}`,
		`{"bool":{"must":[{"term":{"field":"missing","value":"x"}}],"should":[{"term":{"field":"_part","value":"2"}},{"term":{"field":"_part","value":"99"}}]}}`,
		`{"bool":{"must":[{"match":{"text":"temperature"}}],"should":[{"term":{"field":"hostname","value":"CN001"}},{"term":{"field":"hostname","value":"Gpu01"}},{"term":{"field":"hostname","value":"k"}},{"term":{"field":"hostname","value":"nœud7"}},{"term":{"field":"hostname","value":""}},{"term":{"field":"hostname","value":"nowhere"}}]}}`,
		`{"bool":{"must":[{"term":{"field":"hostname","value":"K"}}],"must_not":[{"bool":{"should":[{"term":{"field":"rack","value":"R1"}},{"term":{"field":"rack","value":"ラック"}}]}}]}}`,
		`{"bool":{"must":[{"term":{"field":"hostname","value":"cn002"}}],"should":[{"term":{"field":"rack","value":"r1"}},{"term":{"field":"app","value":"SSHD"}}]}}`,
		`{"bool":{"should":[{"term":{"field":"missing","value":"x"}}]}}`,
		`{}`, `{"match_all":{}}`, `{"bool":{}}`, `{"bool":{"must":[{}]}}`,
		`{"term":{"field":"app","value":"sshd"},"match":{"text":"x"}}`,
		`{"range":{"from":"2023-07-01T00:00:00+02:00"}}`, `{"range":{"to":"not a time"}}`,
		`{"bool":{"must":[{"bool":{"should":[{"term":{}}]}}]}}`, `[]`, `null`, `{"term":null}`,
	} {
		f.Add([]byte(raw))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		q, err := ParseQuery(raw)
		if err != nil {
			return
		}
		checkRoundTrip(t, q)
	})
}
