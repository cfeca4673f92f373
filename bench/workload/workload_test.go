package workload

import (
	"bytes"
	"testing"
	"time"

	"hetsyslog/internal/syslog"
)

func frames(c *Corpus, shape Shape, seed int64, n int) []byte {
	g := NewGenerator(c, shape, seed, 100)
	stamp := AppendStamp(nil, time.Date(2024, 3, 1, 12, 0, 0, 123456000, time.UTC))
	var out []byte
	for i := 0; i < n; i++ {
		out = g.AppendFrame(out, g.Next(), stamp)
	}
	return out
}

func TestSameSeedSameBytesDifferentSeedDifferent(t *testing.T) {
	c := NewCorpus()
	for _, shape := range []Shape{Exact, Templated, Novel} {
		a, b := frames(c, shape, 7, 2000), frames(NewCorpus(), shape, 7, 2000)
		if !bytes.Equal(a, b) {
			t.Errorf("%v: same seed gave different bytes", shape)
		}
		if bytes.Equal(a, frames(c, shape, 8, 2000)) {
			t.Errorf("%v: different seeds gave identical bytes", shape)
		}
	}
}

func TestFramesParseBackWithSequenceInMsgID(t *testing.T) {
	c := NewCorpus()
	if len(c.Base) != BaseMessages || len(c.Cluster.Nodes) != Hosts {
		t.Fatalf("corpus has %d messages, %d hosts", len(c.Base), len(c.Cluster.Nodes))
	}
	for _, shape := range []Shape{Exact, Templated, Novel} {
		g := NewGenerator(c, shape, 3, 41)
		at := time.Date(2024, 3, 1, 12, 0, 0, 5000, time.UTC)
		stamp := AppendStamp(nil, at)
		var wire []byte
		var want []Record
		var bodies []string
		for i := 0; i < 300; i++ {
			r := g.Next()
			bodies = append(bodies, string(r.Body))
			want = append(want, r)
			wire = g.AppendFrame(wire, r, stamp)
		}
		wire = g.AppendFrame(wire, g.Sentinel(), stamp)
		fr := syslog.NewFrameReader(bytes.NewReader(wire))
		for i, r := range want {
			frame, err := fr.ReadFrame()
			if err != nil {
				t.Fatalf("%v frame %d: %v", shape, i, err)
			}
			var m syslog.Message
			if err := syslog.ParseBytes(frame, at, &m); err != nil {
				t.Fatalf("%v frame %d: %v", shape, i, err)
			}
			seq, ok := ParseSeq(m.MsgID)
			if !ok || seq != r.Seq || seq != uint64(41+i) {
				t.Fatalf("%v frame %d: msgid %q, want seq %d", shape, i, m.MsgID, r.Seq)
			}
			direct := g.Message(Record{Seq: r.Seq, Host: r.Host, Base: r.Base, Body: []byte(bodies[i])}, at)
			if m.Content != bodies[i] || m.Hostname != direct.Hostname || m.AppName != direct.AppName ||
				m.Severity != direct.Severity || m.Facility != direct.Facility ||
				!m.Timestamp.Equal(at) || m.MsgID != direct.MsgID {
				t.Fatalf("%v frame %d: socket path parsed %+v, direct path built %+v", shape, i, m, direct)
			}
		}
		if _, err := fr.ReadFrame(); err != nil {
			t.Fatalf("%v: sentinel frame: %v", shape, err)
		}
	}
}

func TestShapesRepeatWhatTheyClaim(t *testing.T) {
	c := NewCorpus()
	base := make(map[string]bool, len(c.Base))
	for _, b := range c.Base {
		base[b.Body] = true
	}
	distinct := func(shape Shape) (n int, allBase bool) {
		g := NewGenerator(c, shape, 11, 0)
		seen := make(map[string]bool)
		allBase = true
		for i := 0; i < 20000; i++ {
			body := string(g.Next().Body)
			seen[body] = true
			allBase = allBase && base[body]
		}
		return len(seen), allBase
	}
	if n, allBase := distinct(Exact); !allBase || n > BaseMessages {
		t.Errorf("exact: %d distinct bodies, all from the corpus: %v", n, allBase)
	}
	for _, shape := range []Shape{Templated, Novel} {
		if n, _ := distinct(shape); n != 20000 {
			t.Errorf("%v: %d distinct bodies of 20000, want every one new", shape, n)
		}
	}
}
