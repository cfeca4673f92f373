package store

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// randomStore fills a store with random docs drawn from a small vocabulary
// so queries have interesting selectivity.
func randomStore(rng *rand.Rand, n int) *Store {
	st := New(1 + rng.Intn(6))
	words := []string{"cpu", "temperature", "throttled", "usb", "device",
		"connection", "closed", "memory", "error", "node", "sensor", "fan"}
	hosts := []string{"cn001", "cn002", "cn003"}
	apps := []string{"kernel", "sshd", "slurmd"}
	for i := 0; i < n; i++ {
		nw := 2 + rng.Intn(6)
		body := ""
		for w := 0; w < nw; w++ {
			if w > 0 {
				body += " "
			}
			body += words[rng.Intn(len(words))]
		}
		st.Index(Doc{
			Time: t0.Add(time.Duration(rng.Intn(3600)) * time.Second),
			Fields: F(
				"hostname", hosts[rng.Intn(len(hosts))],
				"app", apps[rng.Intn(len(apps))],
			),
			Body: body,
		})
	}
	return st
}

func randomQuery(rng *rand.Rand, depth int) Query {
	if depth <= 0 {
		switch rng.Intn(4) {
		case 0:
			return MatchAll{}
		case 1:
			return Term{Field: "hostname", Value: fmt.Sprintf("cn%03d", 1+rng.Intn(4))}
		case 2:
			words := []string{"cpu", "temperature", "usb", "memory", "ghost"}
			return Match{Text: words[rng.Intn(len(words))]}
		default:
			return TimeRange{
				From: t0.Add(time.Duration(rng.Intn(1800)) * time.Second),
				To:   t0.Add(time.Duration(1800+rng.Intn(1800)) * time.Second),
			}
		}
	}
	b := Bool{}
	for i := 0; i < 1+rng.Intn(2); i++ {
		b.Must = append(b.Must, randomQuery(rng, depth-1))
	}
	if rng.Intn(2) == 0 {
		b.MustNot = append(b.MustNot, randomQuery(rng, depth-1))
	}
	return b
}

// Property: every hit returned by Search satisfies the query predicate,
// and the indexed path agrees with a full scan.
func TestQuickSearchSoundAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		st := randomStore(rng, 200)
		for qi := 0; qi < 10; qi++ {
			q := randomQuery(rng, rng.Intn(3))
			hits := st.Search(SearchRequest{Query: q, Size: -1})
			// Soundness: every hit matches.
			for _, h := range hits {
				if !q.matches(&h.Doc) {
					t.Fatalf("unsound hit %+v for query %#v", h.Doc, q)
				}
			}
			// Completeness: brute-force scan finds the same count.
			want := 0
			for id := int64(0); id < 200; id++ {
				if d, ok := st.Get(id); ok && q.matches(&d) {
					want++
				}
			}
			if len(hits) != want {
				t.Fatalf("query %#v returned %d hits, scan found %d", q, len(hits), want)
			}
		}
	}
}

// Property: deleting documents never makes unrelated documents disappear,
// and Compact never changes any query's result set.
func TestQuickDeleteCompactInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		st := randomStore(rng, 150)
		// Delete a random subset.
		deleted := map[int64]bool{}
		for i := 0; i < 40; i++ {
			id := int64(rng.Intn(150))
			if st.Delete(id) {
				deleted[id] = true
			}
		}
		q := randomQuery(rng, 1)
		before := st.Search(SearchRequest{Query: q, Size: -1})
		for _, h := range before {
			if deleted[h.Doc.ID] {
				t.Fatal("deleted doc returned by search")
			}
		}
		st.Compact()
		after := st.Search(SearchRequest{Query: q, Size: -1})
		if len(after) != len(before) {
			t.Fatalf("compact changed hits: %d -> %d", len(before), len(after))
		}
		for i := range after {
			if after[i].Doc.ID != before[i].Doc.ID {
				t.Fatal("compact reordered results")
			}
		}
	}
}

// Property: histogram totals equal CountQuery for any query/interval.
func TestQuickHistogramConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	st := randomStore(rng, 300)
	for trial := 0; trial < 20; trial++ {
		q := randomQuery(rng, rng.Intn(2))
		interval := time.Duration(1+rng.Intn(600)) * time.Second
		total := 0
		for _, b := range st.DateHistogram(q, interval) {
			total += b.Count
		}
		if want := st.CountQuery(q); total != want {
			t.Fatalf("histogram total %d != count %d for %#v @ %v", total, want, q, interval)
		}
	}
}

// Property: a bounded search is a prefix of the unbounded one, in both
// sort orders, for any size.
func TestQuickBoundedSearchIsPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		st := randomStore(rng, 200)
		q := randomQuery(rng, rng.Intn(3))
		for _, asc := range []bool{false, true} {
			all := st.Search(SearchRequest{Query: q, Size: -1, SortAsc: asc})
			k := 1 + rng.Intn(len(all)+3)
			top := st.Search(SearchRequest{Query: q, Size: k, SortAsc: asc})
			if len(top) != min(k, len(all)) {
				t.Fatalf("query %#v size %d: %d hits of %d matches", q, k, len(top), len(all))
			}
			for i := range top {
				if top[i].Doc.ID != all[i].Doc.ID {
					t.Fatalf("query %#v size %d asc=%v: hit %d is doc %d, unbounded search has doc %d there",
						q, k, asc, i, top[i].Doc.ID, all[i].Doc.ID)
				}
			}
		}
	}
}

// Property: a pivot's groups are the Terms of its grouping field, and each
// sub-field breakdown is the Terms of that field within the group.
func TestQuickPivotConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	st := randomStore(rng, 300)
	for trial := 0; trial < 20; trial++ {
		q := randomQuery(rng, rng.Intn(2))
		groups := st.Terms(q, "hostname", 0)
		pivot := st.Pivot(q, "hostname", "app")
		if len(pivot) != len(groups) {
			t.Fatalf("query %#v: pivot has %d groups, Terms %d", q, len(pivot), len(groups))
		}
		for i, g := range pivot {
			if g.Value != groups[i].Value || g.Count != groups[i].Count {
				t.Fatalf("query %#v: pivot group %d = %s×%d, Terms %+v", q, i, g.Value, g.Count, groups[i])
			}
			within := Bool{Must: []Query{q, Term{Field: "hostname", Value: g.Value}}}
			if want := st.Terms(within, "app", 0); fmt.Sprint(g.Sub[0]) != fmt.Sprint(want) {
				t.Fatalf("query %#v group %s: breakdown %v, Terms within the group %v", q, g.Value, g.Sub[0], want)
			}
		}
	}
}
