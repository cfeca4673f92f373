// Command collector runs the full real-time classification service: it
// listens for syslog, classifies every message with a trained model,
// indexes the results (with categories) into an embedded Tivan store
// exposed over HTTP, and prints notification-worthy alerts — the deployed
// system the paper describes, in one process.
//
// Usage:
//
//	collector [-udp :5514] [-tcp :5514] [-http :9200] [-model "Random Forest"]
//	          [-train-scale 20000] [-cooldown 1m] [-workers 8] [-flush-workers 2]
//	          [-metrics-addr :9600] [-classify-cache=false]
//	          [-classify-cache-size 32768] [-classify-cache-shards 8]
//	          [-spool-dir /var/spool/collector] [-spool-max-bytes 1073741824]
//	          [-write-timeout 30s] [-breaker-threshold 5]
//	          [-detect] [-detect-window 1m] [-detect-zscore 3]
//	          [-detect-max-sources 1048576]
//
// With -cluster-nodes, classified documents route across the listed
// remote store nodes (replication 2 by default) instead of an embedded
// store, and the HTTP API scatter-gathers queries across them; the
// /views dashboard reads an embedded store and is disabled in this mode:
//
//	collector -cluster-nodes http://10.0.0.1:9200,http://10.0.0.2:9200 -replication 2
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hetsyslog/internal/app"
	"hetsyslog/internal/core"
	"hetsyslog/internal/loggen"
)

// training holds the flags that shape the model collector trains at
// start-up; the deployment itself is app.Config.
type training struct {
	model string
	scale int
}

func main() {
	cfg := app.Config{Name: "collector"}
	var tr training
	flags(flag.CommandLine, &cfg, &tr)
	flag.Parse()

	if err := run(cfg, tr); err != nil {
		fmt.Fprintln(os.Stderr, "collector:", err)
		os.Exit(1)
	}
}

// flags registers collector's flag set: the shared deployment flags plus
// the model and classification flags.
func flags(fs *flag.FlagSet, cfg *app.Config, tr *training) {
	app.Flags(fs, cfg)
	fs.StringVar(&tr.model, "model", "Complement Naive Bayes", "classifier to deploy")
	fs.IntVar(&tr.scale, "train-scale", 20000, "training corpus size")
	fs.Int64Var(&cfg.Seed, "seed", 1, "training seed")
	fs.DurationVar(&cfg.Cooldown, "cooldown", time.Minute, "per-category alert cooldown")
	fs.StringVar(&cfg.Blacklist, "blacklist", "", "file of noise exemplars to drop pre-classification (one per line, §5.1)")
	fs.IntVar(&cfg.Workers, "workers", 0, "classification goroutines per batch (0 = GOMAXPROCS)")
	fs.BoolVar(&cfg.Cache, "classify-cache", true, "cache classifications of repeated/templated messages (disable when retraining the model in place)")
	fs.IntVar(&cfg.CacheSize, "classify-cache-size", core.DefaultCacheSize, "classify cache entries per level")
	fs.IntVar(&cfg.CacheShards, "classify-cache-shards", core.DefaultCacheShards, "classify cache shard count (rounded up to a power of two)")
}

// run trains the model on the synthetic corpus and runs the deployment
// over it. The generator's cluster stands in for the site inventory.
func run(cfg app.Config, tr training) error {
	fmt.Fprintf(os.Stderr, "collector: training %s on %d synthetic messages...\n", tr.model, tr.scale)
	g := loggen.NewGenerator(cfg.Seed)
	examples, err := g.Dataset(loggen.ScaledPaperCounts(tr.scale))
	if err != nil {
		return err
	}
	model, err := core.NewModel(tr.model)
	if err != nil {
		return err
	}
	cfg.Classifier, err = core.Train(model, core.FromExamples(examples), core.DefaultOptions())
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "collector: trained in %v (%d features)\n",
		cfg.Classifier.TrainTime.Round(time.Millisecond), cfg.Classifier.Vectorizer.Dims())
	cfg.Inventory = g.Cluster

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	a, err := app.New(cfg)
	if err != nil {
		return err
	}
	return a.Run(ctx)
}
