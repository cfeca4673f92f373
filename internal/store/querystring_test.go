package store

import (
	"math/rand"
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

// checkRoundTrip requires a parsed query to re-marshal into the JSON DSL
// and parse back to an equal query: what a cluster coordinator forwards to
// its nodes is the query it was asked.
func checkRoundTrip(t *testing.T, q Query) {
	t.Helper()
	raw, err := MarshalQuery(q)
	if err != nil {
		t.Fatalf("parsed query %#v does not marshal: %v", q, err)
	}
	back, err := ParseQuery(raw)
	if err != nil {
		t.Fatalf("marshalled query %s does not parse: %v", raw, err)
	}
	if !sameQuery(q, back) {
		t.Fatalf("query %#v round-trips through %s to %#v", q, raw, back)
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
// panics, and whatever it accepts survives the coordinator's JSON hop.
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
// it never panics, and whatever it accepts re-marshals to JSON that parses
// back to the same query.
func FuzzParseQuery(f *testing.F) {
	for _, q := range diffQueries(rand.New(rand.NewSource(31))) {
		raw, err := MarshalQuery(q)
		if err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(raw))
	}
	for _, raw := range []string{
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
