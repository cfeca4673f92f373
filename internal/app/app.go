// Package app is the one wiring of the deployed system (paper §4.2):
// syslog listeners -> collector pipeline -> store, with the classifier
// riding the pipeline when one is supplied. Both binaries, the
// integration test and the pipeline example build through New, so a knob
// or an endpoint is added once, and Run owns the one shutdown order.
//
// Which deployment New assembles follows from two things in Config, not
// from a mode switch:
//
//	Classifier  Cluster.Nodes  sink          backend                HTTP root
//	nil         empty          StoreSink     embedded store         store API
//	nil         set            Router        router + coordinator   coordinator
//	set         empty          core.Service  embedded store         store API + /views/
//	set         set            core.Service  router + coordinator   coordinator
package app

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"runtime/debug"
	rpprof "runtime/pprof"
	"strings"
	"time"

	"hetsyslog/internal/cluster"
	"hetsyslog/internal/collector"
	"hetsyslog/internal/core"
	"hetsyslog/internal/detect"
	"hetsyslog/internal/llm"
	"hetsyslog/internal/loggen"
	"hetsyslog/internal/monitor"
	"hetsyslog/internal/obs"
	"hetsyslog/internal/store"
	"hetsyslog/internal/syslog"
	"hetsyslog/internal/taxonomy"
)

// Config describes one deployment. Flags registers the fields the two
// binaries share as command-line flags; the rest are set by the caller.
type Config struct {
	// Name prefixes the process's log lines ("tivan", "collector").
	Name string
	// Log receives those lines (default os.Stderr).
	Log io.Writer

	UDPAddr, TCPAddr string // syslog listeners; empty disables one
	HTTPAddr         string // store / coordinator API
	MetricsAddr      string // /metrics + /debug/pprof; empty disables
	IngestBatch      int    // collector.SyslogSource.MaxBatch

	// Pipeline holds the pipeline knobs.
	Pipeline collector.Config
	// Cluster, when Nodes is non-empty, replaces the embedded store with a
	// router and a scatter-gather coordinator over those store nodes; its
	// per-node spools are the deployment's only durability. Its
	// BreakerThreshold is taken from Pipeline, and Gen is created here.
	// Without Nodes, New refuses the settings its flags set (ignored).
	Cluster cluster.Config

	Shards    int           // embedded store shard count
	DataFile  string        // snapshot: loaded by New, written by Run at shutdown; no cluster
	Retention time.Duration // drop embedded-store documents older than this; no cluster

	// Classifier, when set, makes core.Service the sink — every record is
	// classified, indexed with its category and considered for alerting —
	// behind a dedup stage and the optional blacklist.
	Classifier  *core.TextClassifier
	Workers     int
	Cache       bool
	CacheSize   int
	CacheShards int
	Cooldown    time.Duration // per-category alert cooldown
	Blacklist   string        // file of noise exemplars, one per line (§5.1)
	Seed        int64         // seeds the /views/summary latency model
	// Inventory is the site inventory: records are enriched with their
	// host's rack and architecture, and /views/perarch sizes its groups
	// from it.
	Inventory *loggen.Cluster
	// Notifier receives alerts (default: print "ALERT ..." to stdout).
	Notifier monitor.Notifier

	// Detect adds the streaming detectors as the last stage; Detector
	// carries their knobs (Classify, Alerts and Metrics are filled in).
	Detect   bool
	Detector detect.Config

	CPUProfile, MemProfile string // written by Run at clean shutdown
	GCPercent              int    // debug.SetGCPercent when > 0
}

// App is an assembled deployment. The exported parts are what New wired
// together, for callers that query or wrap them before Run; fields that
// do not apply to the deployment are nil.
type App struct {
	Registry    *obs.Registry
	Store       *store.Store
	Router      *cluster.Router
	Coordinator *cluster.Coordinator
	Service     *core.Service
	Alerts      *monitor.AlertManager
	Detector    *detect.Detector
	Source      *collector.SyslogSource
	Pipeline    *collector.Pipeline
	// Handler is the API served on Config.HTTPAddr.
	Handler http.Handler
	// BoundHTTP is the address Run bound Config.HTTPAddr to; valid once
	// Source.Ready() is closed.
	BoundHTTP string

	cfg Config
}

func (a *App) logf(format string, args ...any) {
	fmt.Fprintf(a.cfg.Log, a.cfg.Name+": "+format+"\n", args...)
}

// New assembles the deployment cfg describes without starting it.
func New(cfg Config) (*App, error) {
	if cfg.Log == nil {
		cfg.Log = os.Stderr
	}
	if err := cfg.ignored(); err != nil {
		return nil, err
	}
	a := &App{cfg: cfg, Registry: obs.NewRegistry()}
	reg := a.Registry
	obs.RegisterRuntimeMemStats(reg)

	pipeCfg := cfg.Pipeline
	if len(cfg.Cluster.Nodes) > 0 {
		ccfg := cfg.Cluster
		ccfg.BreakerThreshold = pipeCfg.BreakerThreshold
		// One shared ingest generation ties the router to the coordinator's
		// query cache: deliveries and spool replays invalidate cached
		// aggregates by advancing it.
		ccfg.Gen = cluster.NewGeneration()
		var err error
		if a.Router, err = cluster.NewRouter(ccfg, reg); err != nil {
			return nil, err
		}
		if a.Coordinator, err = cluster.NewCoordinator(ccfg, reg); err != nil {
			return nil, err
		}
	} else {
		a.Store = store.New(cfg.Shards)
		a.Store.Instrument(reg)
		if cfg.DataFile != "" {
			if err := a.Store.LoadFile(cfg.DataFile); err == nil {
				a.logf("restored %d docs from %s", a.Store.Count(), cfg.DataFile)
			} else if !errors.Is(err, os.ErrNotExist) {
				return nil, fmt.Errorf("load snapshot: %w", err)
			}
		}
	}
	if err := pipeCfg.Validate(); err != nil {
		return nil, err
	}

	if cfg.Classifier != nil || cfg.Detect {
		notifier := cfg.Notifier
		if notifier == nil {
			notifier = monitor.NotifierFunc(func(al monitor.Alert) { fmt.Println("ALERT", al) })
		}
		a.Alerts = &monitor.AlertManager{Cooldown: cfg.Cooldown, Notifier: notifier}
	}

	var sink collector.Sink
	var stages []collector.Stage
	switch {
	case cfg.Classifier != nil:
		a.Service = &core.Service{
			Classifier: cfg.Classifier, Alerts: a.Alerts, Workers: cfg.Workers, Metrics: reg,
		}
		if a.Router != nil {
			a.Service.Indexer = a.Router
		} else {
			a.Service.Store = a.Store
		}
		if cfg.Cache {
			a.Service.Cache = core.NewClassifyCache(cfg.CacheShards, cfg.CacheSize)
		}
		sink = a.Service
		// rsyslog-style dedup in front of classification keeps identical
		// message storms from flooding the store.
		dedup := collector.NewDedup(time.Second)
		dedup.Metrics = reg
		stages = append(stages, dedup)
	case a.Router != nil:
		sink = a.Router
	default:
		sink = &collector.StoreSink{Store: a.Store}
	}
	if cfg.Inventory != nil {
		stages = append(stages, InventoryEnricher(cfg.Inventory))
	}
	if cfg.Classifier != nil && cfg.Blacklist != "" {
		nf, err := loadBlacklist(cfg.Blacklist)
		if err != nil {
			return nil, err
		}
		a.logf("%d noise exemplars blacklisted", nf.Exemplars())
		stages = append(stages, nf)
	}
	if cfg.Detect {
		// Last, so attack traffic (which varies per line and passes dedup)
		// is seen enriched; with a classifier the detector classifies each
		// record, keys its rate baselines on the category and stamps it on
		// the record, which the sink then stores without classifying again.
		dcfg := cfg.Detector
		dcfg.Alerts, dcfg.Metrics = a.Alerts, reg
		if a.Service != nil {
			dcfg.Classify = a.Service.CategoryOf
		}
		var err error
		if a.Detector, err = detect.New(dcfg); err != nil {
			return nil, err
		}
		stages = append(stages, a.Detector)
	}

	a.Source = collector.NewSyslogSource(cfg.UDPAddr, cfg.TCPAddr)
	a.Source.MaxBatch = cfg.IngestBatch
	a.Source.Metrics = reg
	a.Pipeline = &collector.Pipeline{
		Source:  a.Source,
		Stages:  stages,
		Sink:    sink,
		Config:  &pipeCfg,
		Metrics: reg,
		// Every retention point downstream copies what it keeps (the store
		// into arenas, the router into its wire encoding, dedup, detectors
		// and caches by cloning), so leased listener messages go back to
		// the pool the moment the pipeline is done with a record.
		Release: func(r collector.Record) { syslog.Recycle(r.Msg) },
	}
	a.Handler = a.mux()
	return a, nil
}

// ignored refuses a setting the assembled deployment would accept and
// then never use, naming its flag: the cluster settings belong to a
// front (-cluster-nodes), and a front has no store to snapshot or age.
func (cfg Config) ignored() error {
	var errs []error
	if len(cfg.Cluster.Nodes) == 0 {
		c := cfg.Cluster
		for _, s := range []struct {
			flag string
			set  bool
		}{
			{"-spool-dir", c.SpoolDir != ""},
			{"-spool-max-bytes", c.SpoolMaxBytes != 0},
			{"-replication", c.Replication != 0},
			{"-partitions", c.Partitions != 0},
			{"-time-slice", c.TimeSlice != 0},
			{"-query-cache-size", c.QueryCacheSize != 0},
		} {
			if s.set {
				errs = append(errs, fmt.Errorf("app: %s is set without -cluster-nodes; only a cluster front uses it", s.flag))
			}
		}
	} else {
		if cfg.DataFile != "" {
			errs = append(errs, errors.New("app: -data is set with -cluster-nodes; a cluster front has no store to snapshot"))
		}
		if cfg.Retention != 0 {
			errs = append(errs, errors.New("app: -retention is set with -cluster-nodes; a cluster front has no store to expire"))
		}
	}
	return errors.Join(errs...)
}

// InventoryEnricher returns the stage that stamps each record with its
// host's rack and architecture — the positional context §4.5.2 needs —
// from a map of the site inventory built once, so the per-record cost is
// one lookup. Unknown hosts pass through unenriched.
func InventoryEnricher(inv *loggen.Cluster) collector.FilterFunc {
	type place struct{ rack, arch string }
	places := make(map[string]place, len(inv.Nodes))
	for _, n := range inv.Nodes {
		places[n.Name] = place{fmt.Sprintf("r%d", n.Rack), string(n.Arch)}
	}
	return collector.TopologyEnricher(func(host string) (string, string, bool) {
		p, ok := places[host]
		return p.rack, p.arch, ok
	})
}

func loadBlacklist(path string) (*core.NoiseFilter, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	nf := core.NewNoiseFilter(0)
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			nf.Blacklist(line)
		}
	}
	return nf, nil
}

// mux builds the one HTTP surface: the store API at the root (the
// scatter-gather coordinator over a cluster), /metrics, /alerts and
// /detect/state when those parts exist, /cluster/nodes over a cluster,
// and — reading the embedded store directly, so single-node only — the
// dashboard views and the LLM status summary when classifying.
func (a *App) mux() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", a.Registry.Handler())
	if a.Alerts != nil {
		mux.HandleFunc("GET /alerts", a.Alerts.ServeAlerts)
	}
	if a.Detector != nil {
		mux.HandleFunc("GET /detect/state", a.Detector.ServeState)
	}
	if a.Router != nil {
		mux.Handle("/", a.Coordinator.Handler())
		mux.HandleFunc("GET /cluster/nodes", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(a.Router.Stats())
		})
		return mux
	}
	mux.Handle("/", a.Store.Handler())
	if a.Service == nil {
		return mux
	}
	dash := &monitor.Dashboard{Store: a.Store}
	if inv := a.cfg.Inventory; inv != nil {
		dash.Archs = func(arch string) (int, bool) {
			n := len(inv.NodesWithArch(loggen.Arch(arch)))
			return n, n > 0
		}
	}
	mux.Handle("/views/", dash.Handler())
	summarizer := llm.NewSummarizer(llm.Falcon40B(), llm.A100Node(), a.cfg.Seed)
	mux.HandleFunc("GET /views/summary", func(w http.ResponseWriter, r *http.Request) {
		text, latency := summarizer.SummarizeSystem(nodeStatuses(a.Store))
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"summary\": %q, \"modelled_latency_sec\": %.3f}\n", text, latency.Seconds())
	})
	return mux
}

// nodeStatuses aggregates per-node per-category counts from the store for
// the summarizer.
func nodeStatuses(st *store.Store) []llm.NodeStatus {
	var out []llm.NodeStatus
	for _, nb := range st.Terms(store.MatchAll{}, "hostname", 0) {
		ns := llm.NodeStatus{Node: nb.Value, Counts: map[taxonomy.Category]int{}}
		nodeQ := store.Term{Field: "hostname", Value: nb.Value}
		for _, cb := range st.Terms(nodeQ, "category", 0) {
			ns.Counts[taxonomy.Category(cb.Value)] = cb.Count
		}
		out = append(out, ns)
	}
	return out
}

// obsMux is the dedicated observability endpoint: Prometheus scrapes at
// /metrics plus the pprof surface, kept off the main API address so
// profiling is never exposed alongside the public port.
func obsMux(reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// readHeaderTimeout is how long a connection may take to send its request
// headers before the HTTP servers drop it, so idle or trickling peers
// cannot hold connections open indefinitely.
const readHeaderTimeout = 10 * time.Second

// Run operates the deployment until ctx is cancelled (or a listener
// fails), then shuts down in the one order that loses nothing: stop the
// source and wait for the pipeline to drain its queue into the sink,
// close the router (final spool drain), write the snapshot, and only
// then stop serving HTTP and flush the profiles.
func (a *App) Run(ctx context.Context) error {
	cfg := a.cfg
	if cfg.GCPercent > 0 {
		debug.SetGCPercent(cfg.GCPercent)
	}
	if cfg.CPUProfile != "" {
		f, err := os.Create(cfg.CPUProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rpprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer func() {
			rpprof.StopCPUProfile()
			a.logf("cpu profile written to %s", cfg.CPUProfile)
		}()
	}
	if cfg.MemProfile != "" {
		defer a.writeHeapProfile(cfg.MemProfile)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errCh := make(chan error, 2) // one slot per HTTP server
	var servers []*http.Server
	serve := func(addr string, h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return "", err
		}
		srv := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
		servers = append(servers, srv)
		go func() { errCh <- srv.Serve(ln) }()
		return ln.Addr().String(), nil
	}
	defer func() {
		shutCtx, stop := context.WithTimeout(context.Background(), 3*time.Second)
		defer stop()
		for _, srv := range servers {
			_ = srv.Shutdown(shutCtx)
		}
	}()
	var err error
	if a.BoundHTTP, err = serve(cfg.HTTPAddr, a.Handler); err != nil {
		return err
	}
	if cfg.MetricsAddr != "" {
		if _, err := serve(cfg.MetricsAddr, obsMux(a.Registry)); err != nil {
			return err
		}
	}

	if a.Router != nil {
		a.Router.Start(ctx)
	}
	// The pipeline goroutine cancels on its way out, so a pipeline that
	// stops by itself (a listener that cannot bind) ends the run too.
	pipeDone := make(chan struct{})
	var pipeErr error
	go func() {
		defer close(pipeDone)
		defer cancel()
		pipeErr = a.Pipeline.Run(ctx)
	}()
	go func() {
		select {
		case <-a.Source.Ready():
			a.logf("syslog udp=%s tcp=%s, http=%s, %s",
				a.Source.BoundUDP, a.Source.BoundTCP, a.BoundHTTP, a.backend())
		case <-ctx.Done():
		}
	}()
	if a.Store != nil && cfg.Retention > 0 {
		go a.retain(ctx)
	}

	select {
	case <-ctx.Done():
	case err = <-errCh:
		cancel()
	}
	<-pipeDone
	if err == nil {
		err = pipeErr
	}
	if a.Router != nil {
		if cerr := a.Router.Close(); cerr != nil {
			a.logf("router close: %v", cerr)
		}
	}
	a.logSummary()
	if a.Store != nil && cfg.DataFile != "" {
		if serr := a.Store.SaveFile(cfg.DataFile); serr != nil {
			a.logf("snapshot: %v", serr)
		} else {
			a.logf("snapshot written to %s", cfg.DataFile)
		}
	}
	return err
}

func (a *App) backend() string {
	if a.Router != nil {
		return fmt.Sprintf("cluster front over %d nodes", len(a.cfg.Cluster.Nodes))
	}
	return fmt.Sprintf("%d docs in %d shards", a.Store.Count(), a.cfg.Shards)
}

// retain applies the retention window to the embedded store once a
// minute until ctx ends.
func (a *App) retain(ctx context.Context) {
	tick := time.NewTicker(time.Minute)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			if n := a.Store.DeleteBefore(time.Now().Add(-a.cfg.Retention)); n > 0 {
				a.Store.Compact()
				a.logf("retention dropped %d docs", n)
			}
		}
	}
}

// logSummary reports, after the drain, what the run did and what is
// left on disk for the next one.
func (a *App) logSummary() {
	ps := a.Pipeline.Stats()
	a.logf("shut down: ingested=%d filtered=%d flushed=%d dropped=%d; %s",
		ps.Ingested, ps.Filtered, ps.Flushed, ps.Dropped, a.backend())
	if a.Service != nil {
		classified, actionable := a.Service.Counts()
		sent, muted := a.Alerts.Counts()
		a.logf("classified=%d actionable=%d alerts sent=%d muted=%d", classified, actionable, sent, muted)
	}
	if a.Detector != nil {
		for _, dc := range a.Detector.State(0).Detectors {
			if dc.Fired > 0 || dc.Suppressed > 0 {
				a.logf("detector %s fired=%d suppressed=%d", dc.Detector, dc.Fired, dc.Suppressed)
			}
		}
	}
	if a.Router != nil {
		for i, ns := range a.Router.Stats() {
			if ns.SpoolRecords > 0 {
				a.logf("node %d (%s): %d records spooled await replay on next start", i, ns.URL, ns.SpoolRecords)
			}
		}
	}
}

// writeHeapProfile writes an allocation profile of the live heap.
func (a *App) writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		a.logf("heap profile: %v", err)
		return
	}
	defer f.Close()
	runtime.GC() // flush unreachable objects so the profile shows live heap
	if err := rpprof.WriteHeapProfile(f); err != nil {
		a.logf("heap profile: %v", err)
		return
	}
	a.logf("heap profile written to %s", path)
}
