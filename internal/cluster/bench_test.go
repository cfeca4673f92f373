package cluster

// Cluster benchmarks: router fan-out ingest throughput and scatter-gather
// query latency over in-process HTTP store nodes. The numbers bound the
// cost of the cluster hop itself (HTTP + wire codec + partition planning)
// since the nodes run on the loopback of the same machine.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"hetsyslog/internal/store"
)

func benchClusterCfg(b *testing.B, nNodes, replication int) Config {
	b.Helper()
	_, urls := newTestNodes(b, nNodes)
	return Config{
		Nodes:       urls,
		Replication: replication,
		Partitions:  32,
		TimeSlice:   time.Hour,
		HTTPTimeout: 30 * time.Second,
		Gen:         NewGeneration(),
	}
}

// benchDocs returns n documents a second apart from hosts hosts.
func benchDocs(n, hosts int) []store.Doc {
	base := time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC)
	docs := make([]store.Doc, n)
	for i := range docs {
		docs[i] = store.Doc{
			Time:   base.Add(time.Duration(i) * time.Second),
			Fields: store.F("hostname", fmt.Sprintf("cn%03d", i%hosts), "app", "kernel"),
			Body:   fmt.Sprintf("CPU %d temperature above threshold", i),
		}
	}
	return docs
}

// BenchmarkClusterRouterIndexBatch measures routed ingest: one pipeline
// batch partitioned, stamped, and delivered to every replica over HTTP.
//
// The cluster is recycled off-timer every resetEvery iterations so the
// node-side corpus stays bounded: without the reset, a faster wire path
// simply runs more iterations, grows the stores further, and pays ever
// more for server-side indexing — the benchmark would measure corpus
// growth, not the hop. Every variant gets the identical cap.
func BenchmarkClusterRouterIndexBatch(b *testing.B) {
	const (
		batch      = 256
		resetEvery = 128
	)
	for _, repl := range []int{1, 2} {
		b.Run(fmt.Sprintf("replication=%d", repl), func(b *testing.B) {
			var (
				rt      *Router
				servers []*httptest.Server
			)
			makeCluster := func() {
				urls := make([]string, 3)
				servers = servers[:0]
				for i := range urls {
					srv := httptest.NewServer(store.New(2).Handler())
					servers = append(servers, srv)
					urls[i] = srv.URL
				}
				var err error
				rt, err = NewRouter(Config{
					Nodes:       urls,
					Replication: repl,
					Partitions:  32,
					TimeSlice:   time.Hour,
					HTTPTimeout: 30 * time.Second,
					Gen:         NewGeneration(),
				}, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			closeCluster := func() {
				rt.Close()
				for _, srv := range servers {
					srv.Close()
				}
			}
			makeCluster()
			defer func() { closeCluster() }()
			docs := benchDocs(batch, 64)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%resetEvery == 0 {
					b.StopTimer()
					closeCluster()
					makeCluster()
					b.StartTimer()
				}
				if err := rt.IndexBatch(ctx, docs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "recs/s")
		})
	}
}

// BenchmarkClusterScatterGatherQuery measures coordinator queries against
// a 3-node cluster at replication 2 preloaded with 61 440 documents from
// 512 hosts: the scatter plan, per-node HTTP calls, and the exact merge.
// The bare names run with the query cache enabled (the default front
// wiring), so steady-state iterations after the first are cache hits; the
// nocache variants pay the scatter, the node hop and the merge every time.
// Search is never cached: search reads every hit of one host, and
// search/nocache a dashboard's newest 10 of everything. terms/nocache
// merges a 512-bucket Terms answer from each node.
func BenchmarkClusterScatterGatherQuery(b *testing.B) {
	cfg := benchClusterCfg(b, 3, 2)
	rt, err := NewRouter(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { rt.Close() })
	co, err := NewCoordinator(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	uncachedCfg := cfg
	uncachedCfg.QueryCacheSize = -1
	coNC, err := NewCoordinator(uncachedCfg, nil)
	if err != nil {
		b.Fatal(err)
	}

	ctx := context.Background()
	docs := benchDocs(61440, 512)
	for lo := 0; lo < len(docs); lo += 512 {
		hi := lo + 512
		if hi > len(docs) {
			hi = len(docs)
		}
		if err := rt.IndexBatch(ctx, docs[lo:hi]); err != nil {
			b.Fatal(err)
		}
	}
	q := store.Term{Field: "hostname", Value: "cn001"}

	b.Run("count", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := co.Count(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("count/nocache", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := coNC.Count(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("search", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := co.Search(ctx, q, -1, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("search/nocache", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := coNC.Search(ctx, nil, 10, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("datehist", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := co.DateHistogram(ctx, nil, time.Minute); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("terms", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := co.Terms(ctx, nil, "hostname", 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("terms/nocache", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := coNC.Terms(ctx, nil, "hostname", 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}
