package collector

import (
	"context"
	"testing"
	"time"

	"hetsyslog/internal/store"
	"hetsyslog/internal/syslog"
)

// TestStoreSinkSurvivesMessageReparse pins the contract the zero-copy
// ingest path rests on: StoreSink.Write hands the store string views of
// the message's materialization slab, the store copies them into its own
// arenas, and re-parsing different wire bytes into the SAME message —
// exactly what happens when a pooled message is recycled to the listener
// and reused for the next frame — must not change a single stored
// document.
func TestStoreSinkSurvivesMessageReparse(t *testing.T) {
	ref := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	var m syslog.Message
	if err := syslog.ParseBytes([]byte("<13>Aug  7 12:00:00 cn042 kernel: CPU 3 temperature above threshold"), ref, &m); err != nil {
		t.Fatal(err)
	}

	st := store.New(2)
	sink := &StoreSink{Store: st}
	if err := sink.Write(context.Background(), []Record{{Tag: "syslog", Msg: &m}}); err != nil {
		t.Fatal(err)
	}

	// Recycle-and-reparse: the second frame overwrites m's slab in place,
	// which is what the message pool does between deliveries.
	if err := syslog.ParseBytes([]byte("<86>Aug  7 12:00:01 gpu07 sshd: Accepted publickey for root from 10.0.0.9"), ref, &m); err != nil {
		t.Fatal(err)
	}
	if err := sink.Write(context.Background(), []Record{{Tag: "syslog", Msg: &m}}); err != nil {
		t.Fatal(err)
	}

	if got := st.Count(); got != 2 {
		t.Fatalf("store count = %d, want 2", got)
	}
	hits := st.Search(store.SearchRequest{Query: store.Term{Field: "hostname", Value: "cn042"}, Size: -1})
	if len(hits) != 1 {
		t.Fatalf("first message: %d hits for its hostname, want 1", len(hits))
	}
	if hits[0].Doc.Body != "CPU 3 temperature above threshold" {
		t.Errorf("first message's stored body mutated by re-parse:\n got %q", hits[0].Doc.Body)
	}
	if v, _ := hits[0].Doc.Fields.Get("app"); v != "kernel" {
		t.Errorf("first message's stored app mutated by re-parse: got %q", v)
	}
	if got := st.CountQuery(store.Match{Text: "publickey"}); got != 1 {
		t.Errorf("second message not indexed correctly: %d matches", got)
	}
}

// TestPipelineReleaseHook checks the opt-in release path end to end: with
// Release wired, every record delivered to a non-retaining sink is handed
// back exactly once, and records the sink never saw (ctx-cancelled or
// stage-dropped) are not double-released.
func TestPipelineReleaseHook(t *testing.T) {
	st := store.New(1)
	released := 0
	ch := make(chan Record, 16)
	p := &Pipeline{
		Source: &ChannelSource{Ch: ch},
		Sink:   &StoreSink{Store: st},
		Release: func(r Record) {
			released++
			syslog.Recycle(r.Msg) // heap messages: no-op, nil-safe
		},
		Config: &Config{BatchSize: 4},
	}
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()

	const n = 10
	ref := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		var m syslog.Message
		if err := syslog.ParseBytes([]byte("<13>Aug  7 12:00:00 cn001 kernel: link down on port eth0"), ref, &m); err != nil {
			t.Fatal(err)
		}
		ch <- Record{Tag: "syslog", Msg: &m}
	}
	close(ch)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if released != n {
		t.Errorf("released %d records, want %d", released, n)
	}
	if got := st.Count(); got != n {
		t.Errorf("store count = %d, want %d", got, n)
	}
}
