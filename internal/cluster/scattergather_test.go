package cluster

// Property suite for the scatter-gather merge: a corpus split across
// 2–4 in-process nodes must answer every query shape identically to a
// single store holding the union. Test names contain ScatterGather for
// CI's focused cluster gate.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hetsyslog/internal/store"
)

var sgBase = time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC)

// randomCorpus builds n deterministic docs from rng: small vocabularies
// for interesting selectivity, a slice of pre-epoch timestamps to
// exercise floor-division bucketing, and one zero-time doc per corpus to
// exercise the histogram bucket clamp end to end.
func randomCorpus(rng *rand.Rand, n int) []store.Doc {
	words := []string{"cpu", "temperature", "throttled", "usb", "device",
		"connection", "closed", "memory", "error", "node", "sensor", "fan"}
	hosts := []string{"cn001", "cn002", "cn003", "cn004", "login1"}
	apps := []string{"kernel", "sshd", "slurmd"}
	docs := make([]store.Doc, 0, n)
	for i := 0; i < n; i++ {
		nw := 2 + rng.Intn(5)
		body := ""
		for w := 0; w < nw; w++ {
			if w > 0 {
				body += " "
			}
			body += words[rng.Intn(len(words))]
		}
		ts := sgBase.Add(time.Duration(rng.Intn(3600)) * time.Second)
		switch {
		case i == 0:
			ts = time.Time{} // the zero-time doc: histogram clamp fodder
		case rng.Intn(10) == 0:
			ts = time.Unix(0, 0).Add(-time.Duration(rng.Intn(3600)) * time.Second)
		}
		docs = append(docs, store.Doc{
			Time: ts,
			Fields: store.F(
				"hostname", hosts[rng.Intn(len(hosts))],
				"app", apps[rng.Intn(len(apps))],
			),
			Body: body,
		})
	}
	return docs
}

func randomClusterQuery(rng *rand.Rand, depth int) store.Query {
	if depth <= 0 {
		switch rng.Intn(4) {
		case 0:
			return store.MatchAll{}
		case 1:
			return store.Term{Field: "hostname", Value: fmt.Sprintf("cn%03d", 1+rng.Intn(6))}
		case 2:
			words := []string{"cpu", "temperature", "usb", "memory", "ghost"}
			return store.Match{Text: words[rng.Intn(len(words))]}
		default:
			return store.TimeRange{
				From: sgBase.Add(time.Duration(rng.Intn(1800)) * time.Second),
				To:   sgBase.Add(time.Duration(1800+rng.Intn(1800)) * time.Second),
			}
		}
	}
	b := store.Bool{}
	for i := 0; i < 1+rng.Intn(2); i++ {
		b.Must = append(b.Must, randomClusterQuery(rng, depth-1))
	}
	if rng.Intn(2) == 0 {
		b.MustNot = append(b.MustNot, randomClusterQuery(rng, depth-1))
	}
	return b
}

// hitKey identifies a logical document independent of which node stored
// it: per-node IDs and the router's partition stamp are placement
// artifacts, not content.
func hitKey(h store.Hit) string {
	host, _ := h.Doc.Fields.Get("hostname")
	return fmt.Sprintf("%d|%s|%s", h.Doc.Time.UnixNano(), host, h.Doc.Body)
}

// TestScatterGatherMergeMatchesSingleStore is the exactness property:
// for random corpora, node counts, replication factors, and queries, the
// coordinator's Search/Count/DateHistogram/Terms over the cluster equal
// a single store holding the union corpus.
func TestScatterGatherMergeMatchesSingleStore(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	trials := 6
	if testing.Short() {
		trials = 2
	}
	ctx := context.Background()
	for trial := 0; trial < trials; trial++ {
		nNodes := 2 + rng.Intn(3)
		cfg := Config{
			Nodes:       make([]string, 0, nNodes),
			Replication: 1 + rng.Intn(2),
			Partitions:  8 << rng.Intn(3),
			TimeSlice:   time.Duration(1+rng.Intn(4)) * time.Hour,
			HTTPTimeout: 10 * time.Second,
		}
		if cfg.Replication > nNodes {
			cfg.Replication = nNodes
		}
		_, urls := newTestNodes(t, nNodes)
		cfg.Nodes = urls

		// Reference store and cluster receive independently built (but
		// identical) corpora: the router mutates docs to stamp partitions.
		corpusSeed := rng.Int63()
		ref := store.New(3)
		ref.IndexBatch(randomCorpus(rand.New(rand.NewSource(corpusSeed)), 400))
		rt, err := NewRouter(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.IndexBatch(ctx, randomCorpus(rand.New(rand.NewSource(corpusSeed)), 400)); err != nil {
			t.Fatal(err)
		}
		rt.Close()
		co, err := NewCoordinator(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}

		for qi := 0; qi < 8; qi++ {
			q := randomClusterQuery(rng, rng.Intn(3))
			label := fmt.Sprintf("trial %d (nodes=%d repl=%d parts=%d) query %#v",
				trial, nNodes, cfg.Replication, cfg.Partitions, q)

			// Count.
			got, err := co.Count(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if want := ref.CountQuery(q); got != want {
				t.Fatalf("%s: Count = %d, want %d", label, got, want)
			}

			// Search: same logical multiset, same size semantics.
			hits, err := co.Search(ctx, q, -1, qi%2 == 0)
			if err != nil {
				t.Fatal(err)
			}
			refHits := ref.Search(store.SearchRequest{Query: q, Size: -1, SortAsc: qi%2 == 0})
			if len(hits) != len(refHits) {
				t.Fatalf("%s: Search returned %d hits, want %d", label, len(hits), len(refHits))
			}
			gotSet, wantSet := map[string]int{}, map[string]int{}
			for i := range hits {
				gotSet[hitKey(hits[i])]++
				wantSet[hitKey(refHits[i])]++
			}
			for k, n := range wantSet {
				if gotSet[k] != n {
					t.Fatalf("%s: hit %q: cluster %d copies, single store %d", label, k, gotSet[k], n)
				}
			}

			// Bounded search: pushing size down to the nodes returns
			// exactly what fetching everything and truncating after the
			// merge returns — same (time, id) sequence, ties included
			// (timestamps here have one-second grain and repeat).
			for _, size := range []int{0, 1, 7, len(hits) + 3} {
				for _, asc := range []bool{false, true} {
					got, err := co.Search(ctx, q, size, asc)
					if err != nil {
						t.Fatal(err)
					}
					all, err := co.Search(ctx, q, -1, asc)
					if err != nil {
						t.Fatal(err)
					}
					want := MergeHits(all, size, asc)
					if len(got) != len(want) {
						t.Fatalf("%s: Search(size=%d asc=%v) returned %d hits, fetch-all-then-truncate %d",
							label, size, asc, len(got), len(want))
					}
					for i := range got {
						if !got[i].Doc.Time.Equal(want[i].Doc.Time) || got[i].Doc.ID != want[i].Doc.ID {
							t.Fatalf("%s: Search(size=%d asc=%v) hit %d = (%v, %d), fetch-all-then-truncate (%v, %d)",
								label, size, asc, i, got[i].Doc.Time, got[i].Doc.ID, want[i].Doc.Time, want[i].Doc.ID)
						}
					}
				}
			}

			// DateHistogram: identical bucket sequence, including the
			// clamp behavior the zero-time doc triggers on match-all.
			interval := time.Duration(1+rng.Intn(600)) * time.Second
			gh, err := co.DateHistogram(ctx, q, interval)
			if err != nil {
				t.Fatal(err)
			}
			wh := ref.DateHistogram(q, interval)
			if len(gh) != len(wh) {
				t.Fatalf("%s: histogram has %d buckets, want %d (interval %v)", label, len(gh), len(wh), interval)
			}
			for i := range gh {
				if !gh[i].Start.Equal(wh[i].Start) || gh[i].Count != wh[i].Count {
					t.Fatalf("%s: bucket %d = %+v, want %+v", label, i, gh[i], wh[i])
				}
			}

			// Terms: identical order and counts, truncated and not.
			for _, size := range []int{0, 2} {
				gt, err := co.Terms(ctx, q, "hostname", size)
				if err != nil {
					t.Fatal(err)
				}
				wt := ref.Terms(q, "hostname", size)
				if len(gt) != len(wt) {
					t.Fatalf("%s: terms(size=%d) = %d buckets, want %d", label, size, len(gt), len(wt))
				}
				for i := range gt {
					if gt[i] != wt[i] {
						t.Fatalf("%s: terms[%d] = %+v, want %+v", label, i, gt[i], wt[i])
					}
				}
			}
		}
	}
}
