package core

import (
	"context"
	"testing"
	"time"

	"hetsyslog/internal/collector"
	"hetsyslog/internal/syslog"
)

func noiseRecord(content string) collector.Record {
	return collector.Record{
		Time: time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC),
		Msg: &syslog.Message{
			Facility: syslog.Daemon, Severity: syslog.Info,
			Hostname: "cn1", AppName: "app", Content: content,
		},
	}
}

func TestNoiseFilterDropsVariantsOnly(t *testing.T) {
	f := NewNoiseFilter(0)
	f.Blacklist("slurm_rpc_node_registration complete for cn001 usec=123")
	if f.Exemplars() != 1 {
		t.Fatalf("exemplars = %d", f.Exemplars())
	}

	// A near variant (two digits differ) is swallowed.
	if _, keep := f.Process(noiseRecord("slurm_rpc_node_registration complete for cn007 usec=129"), nil); keep {
		t.Error("close variant not dropped")
	}
	// A genuinely different message passes, even on the same topic.
	if _, keep := f.Process(noiseRecord("slurmd version 22.05.3 differs, please update slurm"), nil); !keep {
		t.Error("unrelated message dropped")
	}
	// Issue messages pass untouched.
	if _, keep := f.Process(noiseRecord("CPU 3 temperature above threshold, cpu clock throttled"), nil); !keep {
		t.Error("thermal message dropped by noise filter")
	}
	if f.Dropped() != 1 {
		t.Errorf("dropped = %d", f.Dropped())
	}
	// Nil message records are rejected (not counted as noise drops).
	if _, keep := f.Process(collector.Record{}, nil); keep {
		t.Error("nil message kept")
	}
}

// TestNoiseFilterTighterThanClassifierThreshold verifies the §5.1 design
// point: the blacklist threshold is below the bucketing threshold of 7, so
// it cannot swallow the broader message space the classifier should see.
func TestNoiseFilterTighterThanClassifierThreshold(t *testing.T) {
	f := NewNoiseFilter(0)
	f.Blacklist("periodic agent heartbeat 12345 ok, no error, interval 99 usec")
	// Distance > 3 but < 7: would join a classification bucket, must NOT
	// be blacklisted.
	msg := "periodic agent heartbeat 99 degraded, one error, interval 99 usec"
	if f.Matches(msg) {
		t.Error("noise filter swallowed a message beyond its tight threshold")
	}
}

// TestNoiseFilterInPipeline runs the §5.1 deployment shape: blacklist ->
// classify; blacklisted chatter never reaches the service.
func TestNoiseFilterInPipeline(t *testing.T) {
	c := smallCorpus(t, 1500)
	model, _ := NewModel("Complement Naive Bayes")
	tc, err := Train(model, c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	svc := &Service{Classifier: tc}
	f := NewNoiseFilter(0)
	f.Blacklist("periodic agent heartbeat 11111 ok, no error, interval 22222 usec")

	records := []collector.Record{
		noiseRecord("periodic agent heartbeat 11119 ok, no error, interval 22223 usec"),
		noiseRecord("CPU 9 temperature above threshold, cpu clock throttled"),
	}
	kept := 0
	for _, r := range records {
		if out, keep := f.Process(r, nil); keep {
			kept++
			if err := svc.Write(context.Background(), []collector.Record{out}); err != nil {
				t.Fatal(err)
			}
		}
	}
	classified, _ := svc.Counts()
	if kept != 1 || classified != 1 {
		t.Errorf("kept=%d classified=%d, want 1/1", kept, classified)
	}
}
