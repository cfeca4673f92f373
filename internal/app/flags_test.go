package app

import (
	"flag"
	"testing"
)

// TestSharedFlags pins the 23 flags both binaries share: name and
// default. The binaries' own tests pin what they add.
func TestSharedFlags(t *testing.T) {
	want := map[string]string{
		"udp": ":5514", "tcp": ":5514", "http": ":9200", "metrics-addr": "",
		"shards": "6", "ingest-batch": "0", "flush-workers": "1",
		"spool-dir": "", "spool-max-bytes": "0", "write-timeout": "0s", "breaker-threshold": "0",
		"cpuprofile": "", "memprofile": "", "gc-percent": "0",
		"detect": "false", "detect-window": "0s", "detect-zscore": "0", "detect-max-sources": "0",
		"cluster-nodes": "", "replication": "0", "partitions": "0", "time-slice": "0s",
		"query-cache-size": "0",
	}
	var cfg Config
	fs := flag.NewFlagSet("shared", flag.ContinueOnError)
	Flags(fs, &cfg)
	n := 0
	fs.VisitAll(func(f *flag.Flag) {
		n++
		if def, ok := want[f.Name]; !ok || def != f.DefValue {
			t.Errorf("flag -%s default %q: pinned %q (known %v)", f.Name, f.DefValue, def, ok)
		}
	})
	if n != len(want) {
		t.Errorf("Flags registers %d flags, want %d", n, len(want))
	}
}
