package app

import (
	"flag"
	"strings"
)

// Flags registers on fs the command-line flags every deployment shares,
// bound to cfg's fields, so both binaries expose them under one name,
// default and meaning. A binary registers its own extras (tivan's -data
// and -retention, collector's model and classification flags) beside
// them, on the same Config.
func Flags(fs *flag.FlagSet, cfg *Config) {
	fs.StringVar(&cfg.UDPAddr, "udp", ":5514", "syslog UDP listen address (empty disables)")
	fs.StringVar(&cfg.TCPAddr, "tcp", ":5514", "syslog TCP listen address (empty disables)")
	fs.StringVar(&cfg.HTTPAddr, "http", ":9200", "HTTP API listen address")
	fs.StringVar(&cfg.MetricsAddr, "metrics-addr", "", "dedicated listen address serving /metrics and /debug/pprof (empty disables)")
	fs.IntVar(&cfg.Shards, "shards", 6, "embedded store shard count (the paper ran 6 OpenSearch nodes)")
	fs.IntVar(&cfg.IngestBatch, "ingest-batch", 0, "max syslog messages per listener read-loop batch handed to the pipeline (0 = default 256)")

	fs.IntVar(&cfg.Pipeline.FlushWorkers, "flush-workers", 1, "concurrent pipeline flushers (batches in flight)")
	fs.StringVar(&cfg.Pipeline.SpoolDir, "spool-dir", "", "directory for the disk spill queue: batches the sink refuses spool here and replay on recovery (empty disables)")
	fs.Int64Var(&cfg.Pipeline.SpoolMaxBytes, "spool-max-bytes", 0, "spool size bound; oldest segment evicted past it (0 = unbounded)")
	fs.DurationVar(&cfg.Pipeline.WriteTimeout, "write-timeout", 0, "per-attempt sink write timeout (0 = default 30s)")
	fs.IntVar(&cfg.Pipeline.BreakerThreshold, "breaker-threshold", 0, "consecutive failed writes that trip the sink circuit breaker (0 = default 5)")

	fs.StringVar(&cfg.CPUProfile, "cpuprofile", "", "write a CPU profile of the run to this file at clean shutdown (empty disables)")
	fs.StringVar(&cfg.MemProfile, "memprofile", "", "write an allocation profile to this file at clean shutdown (empty disables)")
	fs.IntVar(&cfg.GCPercent, "gc-percent", 0, "runtime GC target percentage (debug.SetGCPercent; 0 keeps the Go default of 100). The arena-backed store keeps the retained corpus in pointer-free slabs, so higher values trade memory headroom for fewer GC cycles")

	fs.BoolVar(&cfg.Detect, "detect", false, "enable the streaming security detectors (rate spikes + sensitive patterns) as a pipeline stage")
	fs.DurationVar(&cfg.Detector.Window, "detect-window", 0, "detector sliding window and per-source alert cooldown (0 = default 1m)")
	fs.Float64Var(&cfg.Detector.ZScore, "detect-zscore", 0, "rate-spike threshold in decayed standard deviations (0 = default 3)")
	fs.IntVar(&cfg.Detector.MaxSources, "detect-max-sources", 0, "tracked detector sources before idlest-entry eviction (0 = default 1<<20)")

	fs.Func("cluster-nodes", "comma-separated store node base URLs; non-empty routes documents across them instead of an embedded store and serves the scatter-gather coordinator (dashboard views are single-node-only and are disabled)", func(s string) error {
		cfg.Cluster.Nodes = nil
		for _, n := range strings.Split(s, ",") {
			if n = strings.TrimSpace(n); n != "" {
				cfg.Cluster.Nodes = append(cfg.Cluster.Nodes, n)
			}
		}
		return nil
	})
	fs.IntVar(&cfg.Cluster.Replication, "replication", 0, "copies of each document across cluster nodes (0 = default 2)")
	fs.IntVar(&cfg.Cluster.Partitions, "partitions", 0, "hash partitions for cluster placement (0 = default 32; pick once per cluster)")
	fs.DurationVar(&cfg.Cluster.TimeSlice, "time-slice", 0, "time bucket mixed into cluster routing so hosts spread over nodes (0 = default 1h)")
	fs.IntVar(&cfg.Cluster.QueryCacheSize, "query-cache-size", 0, "coordinator merged-result cache entries for count/datehist/terms (0 = default 256, negative disables)")
}
