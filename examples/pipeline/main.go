// Pipeline: the full deployed system end to end, over real sockets —
// generator nodes emit syslog over TCP, a relay forwards to the collector,
// the collector enriches with rack/arch topology, the trained classifier
// labels each message, everything lands in the Tivan store, and actionable
// categories raise alerts. Afterwards the store is queried the way the
// Grafana dashboards of §4.2 would.
//
//	go run ./examples/pipeline
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"time"

	"hetsyslog/internal/app"
	"hetsyslog/internal/collector"
	"hetsyslog/internal/core"
	"hetsyslog/internal/loggen"
	"hetsyslog/internal/monitor"
	"hetsyslog/internal/store"
	"hetsyslog/internal/syslog"
	"hetsyslog/internal/taxonomy"
)

func main() {
	// --- Train the classifier offline (the paper's year of labelled data,
	// compressed into a synthetic corpus). ---
	gen := loggen.NewGenerator(7)
	examples, err := gen.Dataset(loggen.ScaledPaperCounts(5000))
	if err != nil {
		log.Fatal(err)
	}
	model, _ := core.NewModel("Logistic Regression")
	clf, err := core.Train(model, core.FromExamples(examples), core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %s in %v\n", model.Name(), clf.TrainTime.Round(time.Millisecond))

	// --- Stand up the deployment both binaries run (internal/app): store +
	// alerts + dedup/enrichment stages + classification sink. ---
	alertCount := 0
	a, err := app.New(app.Config{
		Name: "pipeline", Log: io.Discard,
		TCPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", Shards: 4,
		Classifier: clf, Inventory: gen.Cluster, Cooldown: 500 * time.Millisecond,
		Notifier: monitor.NotifierFunc(func(al monitor.Alert) {
			alertCount++
			if alertCount <= 5 {
				fmt.Println("ALERT", al)
			}
		}),
		Pipeline: collector.Config{BatchSize: 32, FlushInterval: 20 * time.Millisecond},
	})
	if err != nil {
		log.Fatal(err)
	}
	svc, st, alerts := a.Service, a.Store, a.Alerts
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- a.Run(ctx) }()
	select {
	case <-a.Source.Ready():
	case err := <-runDone:
		log.Fatal(err)
	}

	// --- A relay in front (the primary syslog server of §4.2.2). ---
	downstream, err := syslog.DialSender("tcp", a.Source.BoundTCP, syslog.FormatRFC5424)
	if err != nil {
		log.Fatal(err)
	}
	relay := syslog.NewRelay(downstream)
	relayAddr, err := relay.Server().ListenTCP("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer relay.Close()

	// --- "Compute nodes" send 2000 messages through the relay. ---
	nodeSender, err := syslog.DialSender("tcp", relayAddr.String(), syslog.FormatRFC5424)
	if err != nil {
		log.Fatal(err)
	}
	defer nodeSender.Close()
	const total = 2000
	for i := 0; i < total; i++ {
		ex := gen.Example()
		if err := nodeSender.Send(ex.Message()); err != nil {
			log.Fatal(err)
		}
	}

	// Wait until the listener has parsed everything, then shut down: Run
	// drains the pipeline into the store before it returns.
	received := a.Registry.Counter("syslog_received_total", "")
	for deadline := time.Now().Add(10 * time.Second); received.Value() < total && time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
	}
	cancel()
	if err := <-runDone; err != nil {
		log.Fatal(err)
	}

	classified, actionable := svc.Counts()
	sent, muted := alerts.Counts()
	fmt.Printf("\nclassified=%d actionable=%d alerts sent=%d muted=%d\n",
		classified, actionable, sent, muted)
	fmt.Println(st)

	// --- Dashboard-style queries (§4.2, §4.5.1). ---
	fmt.Println("\nmessages per category:")
	for _, b := range st.Terms(store.MatchAll{}, "category", 0) {
		fmt.Printf("  %-20s %d\n", b.Value, b.Count)
	}
	fmt.Println("\nnoisiest nodes for Thermal Issue:")
	for _, b := range st.Terms(monitor.CategoryQuery(taxonomy.ThermalIssue), "hostname", 3) {
		fmt.Printf("  %-8s %d\n", b.Value, b.Count)
	}
	fmt.Println("\nper-architecture volume:")
	for _, b := range st.Terms(store.MatchAll{}, "arch", 0) {
		fmt.Printf("  %-22s %d\n", b.Value, b.Count)
	}
}
