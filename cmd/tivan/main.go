// Command tivan runs the log store server: syslog listeners on the front,
// the collector pipeline in the middle, the sharded document store with its
// HTTP search/aggregation API on the back — the single-binary equivalent of
// the paper's rsyslog + Fluentd + OpenSearch stack (§4.2).
//
// Usage:
//
//	tivan [-http :9200] [-udp :5514] [-tcp :5514] [-shards 6] [-flush-workers 2]
//	      [-data snapshot.json] [-retention 720h]
//	      [-metrics-addr :9600] [-spool-dir /var/spool/tivan]
//	      [-spool-max-bytes 1073741824] [-write-timeout 30s]
//	      [-detect] [-detect-window 1m] [-detect-zscore 3]
//
// With -cluster-nodes, tivan becomes a stateless cluster front instead
// of a single-node store: ingest routes across the listed store nodes
// (each itself a plain tivan) with -replication copies per document, and
// the HTTP API scatter-gathers queries across them:
//
//	tivan -cluster-nodes http://10.0.0.1:9200,http://10.0.0.2:9200,http://10.0.0.3:9200 \
//	      -replication 2 -spool-dir /var/spool/tivan
//
// Try it:
//
//	logger -n 127.0.0.1 -P 5514 -d "CPU 3 temperature above threshold"
//	curl -s localhost:9200/stats
//	curl -s -X POST localhost:9200/search -d '{"query":{"match":{"text":"temperature"}},"size":5}'
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"hetsyslog/internal/app"
)

func main() {
	cfg := app.Config{Name: "tivan"}
	flags(flag.CommandLine, &cfg)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	a, err := app.New(cfg)
	if err == nil {
		err = a.Run(ctx)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tivan:", err)
		os.Exit(1)
	}
}

// flags registers tivan's flag set: the shared deployment flags plus the
// two that only a store without a classifier in front has.
func flags(fs *flag.FlagSet, cfg *app.Config) {
	app.Flags(fs, cfg)
	fs.StringVar(&cfg.DataFile, "data", "", "snapshot file: loaded at startup, written at shutdown")
	fs.DurationVar(&cfg.Retention, "retention", 0, "drop documents older than this (0 = keep forever)")
}
