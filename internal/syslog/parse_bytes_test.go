package syslog

import (
	"strings"
	"testing"
	"time"

	"hetsyslog/internal/raceflag"
)

// equivalenceRef is the fixed reference time the differential targets use
// (fuzz inputs are only the wire bytes, so the ref must be deterministic).
var equivalenceRef = time.Date(2023, 7, 1, 10, 30, 0, 0, time.UTC)

// sameMessage asserts every exported field of the byte-parser result
// matches the legacy string parser's.
func sameMessage(t *testing.T, input string, got, want *Message) {
	t.Helper()
	if got.Facility != want.Facility || got.Severity != want.Severity {
		t.Errorf("%q: pri %v.%v != %v.%v", input, got.Facility, got.Severity, want.Facility, want.Severity)
	}
	if !got.Timestamp.Equal(want.Timestamp) {
		t.Errorf("%q: timestamp %v != %v", input, got.Timestamp, want.Timestamp)
	}
	gn, go_ := got.Timestamp.Zone()
	wn, wo := want.Timestamp.Zone()
	if gn != wn || go_ != wo {
		t.Errorf("%q: zone %q/%d != %q/%d", input, gn, go_, wn, wo)
	}
	if got.Hostname != want.Hostname || got.AppName != want.AppName ||
		got.ProcID != want.ProcID || got.MsgID != want.MsgID {
		t.Errorf("%q: header fields %q/%q/%q/%q != %q/%q/%q/%q", input,
			got.Hostname, got.AppName, got.ProcID, got.MsgID,
			want.Hostname, want.AppName, want.ProcID, want.MsgID)
	}
	if got.Content != want.Content {
		t.Errorf("%q: content %q != %q", input, got.Content, want.Content)
	}
	if got.Raw != want.Raw {
		t.Errorf("%q: raw %q != %q", input, got.Raw, want.Raw)
	}
	gsd, wsd := got.SD(), want.SD()
	if len(gsd) != len(wsd) {
		t.Errorf("%q: structured %v != %v", input, gsd, wsd)
		return
	}
	for id, params := range wsd {
		gp, ok := gsd[id]
		if !ok || len(gp) != len(params) {
			t.Errorf("%q: structured[%q] %v != %v", input, id, gp, params)
			continue
		}
		for k, v := range params {
			if gp[k] != v {
				t.Errorf("%q: structured[%q][%q] %q != %q", input, id, k, gp[k], v)
			}
		}
	}
}

// checkEquivalence runs one input through a byte parser and its legacy
// string oracle and asserts identical outcomes (same error identity and
// text, or same Message).
func checkEquivalence(t *testing.T, input string,
	byteParse func(*Message) error, legacy func() (*Message, error)) {
	t.Helper()
	m := &Message{}
	errB := byteParse(m)
	want, errL := legacy()
	if (errB == nil) != (errL == nil) {
		t.Errorf("%q: byte err = %v, legacy err = %v", input, errB, errL)
		return
	}
	if errB != nil {
		if errB.Error() != errL.Error() {
			t.Errorf("%q: error text %q != %q", input, errB, errL)
		}
		return
	}
	sameMessage(t, input, m, want)
}

// equivalenceSeeds collects the canonical, torn and odd-timestamp inputs
// from the parser tests plus framing and SD edge cases.
var equivalenceSeeds = []string{
	"<34>Oct 11 22:14:15 mymachine su[231]: 'su root' failed on /dev/pts/8",
	"<13>Oct 11 22:14:15 cn42 CPU temperature above threshold, cpu clock throttled",
	"<13>2023-07-01T10:20:30Z cn42 kernel: usb 1-1: new high-speed USB device number 7",
	"<13>2023-07-01T10:20:30.123456789+02:00 cn42 app[9]: fractional offset",
	"<13>2023-07-01T10:20:30.123456789012345-23:59 cn42 app: overlong fraction",
	"<13>2023-02-29T10:20:30Z cn42 app: bad leap day",
	"<13>Feb 29 10:20:30 cn42 app: year-0 leap day",
	"<13>Oct  1 22:14:15 host single digit day",
	"<13>oct 11 22:14:15 case insensitive month",
	"<13>Oct 41 22:14:15 torn day",
	"<13>Oct 11 25:14:15 torn hour",
	"<13>Oct 11 22:99:15 torn minute",
	"<13>something without any timestamp",
	"<34>",
	"<34>x",
	"<0>a: b",
	"<191>tag[pid]: ok",
	"<165>1 2003-10-11T22:14:15.003Z mymachine.example.com evntslog 111 ID47 [exampleSDID@32473 iut=\"3\" eventSource=\"Application\"] BOMAn application event log entry",
	"<34>1 - - - - - -",
	"<34>1 2023-07-01T00:00:00Z h a p m - hello",
	"<34>1 2023-07-01T00:00:00Z h a p m [x@1 k=\"v\\\"w\\]z\"] esc",
	"<34>1 2023-07-01T00:00:00Z h a p m [a b=\"c\"][d e=\"f\"] two elements",
	"<34>2 2023-07-01T00:00:00Z h a p m - x",
	"<34>1 not-a-time h a p m - x",
	"<34>1 2023-07-01T00:00:00Z h a p",
	"<34>1 2023-07-01T00:00:00Z h a p m [x@1 k",
	"<34>1 2023-07-01T00:00:00,5Z h a p m - comma fraction",
	"<6>Jul  1 09:15:22 cn042 systemd[1]: Started Session 1234 of user root.",
	"<30>1 2023-07-01T09:15:27Z cn046 chronyd - - - System clock wrong by 1.284911 seconds",
	"",
	"no pri at all",
	"<999>overflow pri",
	"<abc>non-numeric pri",
}

// FuzzParseBytesEquivalence pins the tentpole's behavioural contract: the
// byte parsers are bit-for-bit equivalent to the legacy string parsers —
// same Message (timestamps compared down to zone offset), same error —
// for RFC 3164, RFC 5424, and the auto-detecting entry point.
func FuzzParseBytesEquivalence(f *testing.F) {
	for _, s := range equivalenceSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		m := &Message{}
		checkEquivalence(t, raw,
			func(m *Message) error { return ParseRFC3164Bytes([]byte(raw), equivalenceRef, m) },
			func() (*Message, error) { return parseRFC3164Legacy(raw, equivalenceRef) })
		checkEquivalence(t, raw,
			func(m *Message) error { return ParseRFC5424Bytes([]byte(raw), m) },
			func() (*Message, error) { return parseRFC5424Legacy(raw) })
		checkEquivalence(t, raw,
			func(m *Message) error { return ParseBytes([]byte(raw), equivalenceRef, m) },
			func() (*Message, error) { return parseLegacy(raw, equivalenceRef) })
		// Reusing one Message across parses must not leak state between
		// frames: parse twice into the same struct, expect the same result.
		if err := ParseBytes([]byte(raw), equivalenceRef, m); err == nil {
			first := m.Clone()
			if err := ParseBytes([]byte(raw), equivalenceRef, m); err != nil {
				t.Fatalf("%q: reparse into reused Message errored: %v", raw, err)
			}
			sameMessage(t, raw, m, first)
		}
	})
}

// TestParseBytesEquivalenceCorpus runs the differential check over the
// seed corpus in ordinary test runs (fuzzing only executes seeds when the
// -fuzz flag is absent, so this keeps the contract visible in go test).
func TestParseBytesEquivalenceCorpus(t *testing.T) {
	for _, raw := range equivalenceSeeds {
		checkEquivalence(t, raw,
			func(m *Message) error { return ParseRFC3164Bytes([]byte(raw), equivalenceRef, m) },
			func() (*Message, error) { return parseRFC3164Legacy(raw, equivalenceRef) })
		checkEquivalence(t, raw,
			func(m *Message) error { return ParseRFC5424Bytes([]byte(raw), m) },
			func() (*Message, error) { return parseRFC5424Legacy(raw) })
		checkEquivalence(t, raw,
			func(m *Message) error { return ParseBytes([]byte(raw), equivalenceRef, m) },
			func() (*Message, error) { return parseLegacy(raw, equivalenceRef) })
	}
}

// TestParseBytesZeroAllocs enforces the tentpole's acceptance bar: the
// steady-state parse of canonical RFC 3164 and RFC 5424 messages (reused
// Message, warm slab) performs zero heap allocations. Skipped under -race
// like every AllocsPerRun ceiling in this repo.
func TestParseBytesZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	cases := []struct {
		name string
		raw  string
	}{
		{"rfc3164_stamp", "<34>Oct 11 22:14:15 mymachine su[231]: 'su root' failed on /dev/pts/8"},
		{"rfc3164_rfc3339", "<13>2023-07-01T10:20:30Z cn42 kernel: usb 1-1: new high-speed USB device"},
		{"rfc3164_rfc3339_nano_offset", "<13>2023-07-01T10:20:30.123456+02:00 cn42 app[9]: tick"},
		{"rfc5424_no_sd", "<165>1 2003-10-11T22:14:15.003Z mymachine.example.com evntslog 111 ID47 - An application event log entry"},
	}
	ref := equivalenceRef
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := []byte(tc.raw)
			m := &Message{}
			if err := ParseBytes(buf, ref, m); err != nil { // warm the slab
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(200, func() {
				if err := ParseBytes(buf, ref, m); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("steady-state allocs/op = %v, want 0", n)
			}
		})
	}
}

// TestParseBytesSpeedup asserts the fast path's headline win: parsing the
// canonical RFC 3164 line (the dominant wire format in the paper's corpus)
// at least 3x faster than the legacy string parser it replaced. Its exact
// half: the fast path makes no allocation where the legacy parser makes
// some. Its timed half runs the two in alternating rounds and compares
// their per-round minima, so a stretch in which other processes share the
// cores slows both sides rather than one; it is skipped under -race and
// -short, where timing is not meaningful.
func TestParseBytesSpeedup(t *testing.T) {
	raw := "<34>Oct 11 22:14:15 mymachine su[231]: 'su root' failed on /dev/pts/8"
	buf := []byte(raw)
	ref := equivalenceRef
	m := &Message{}
	fastParse := func() {
		if err := ParseBytes(buf, ref, m); err != nil {
			t.Fatal(err)
		}
	}
	slowParse := func() {
		if _, err := parseLegacy(raw, ref); err != nil {
			t.Fatal(err)
		}
	}
	fastParse()
	if !raceflag.Enabled {
		if n := testing.AllocsPerRun(100, fastParse); n != 0 {
			t.Errorf("ParseBytes allocs/op = %v, want 0", n)
		}
		if n := testing.AllocsPerRun(100, slowParse); n == 0 {
			t.Errorf("legacy parser allocs/op = 0; the comparison no longer measures what it claims")
		}
	}
	if raceflag.Enabled {
		t.Skip("timing is not meaningful under -race")
	}
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	const iters = 40000
	timed := func(parse func()) time.Duration {
		start := time.Now()
		for i := 0; i < iters; i++ {
			parse()
		}
		return time.Since(start)
	}
	fast, slow := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for round := 0; round < 25; round++ {
		fast = min(fast, timed(fastParse))
		slow = min(slow, timed(slowParse))
	}
	ratio := float64(slow) / float64(fast)
	t.Logf("bytes %v, legacy %v for %d iterations: %.2fx", fast, slow, iters, ratio)
	if ratio < 3 {
		t.Errorf("parse speedup = %.2fx, want >= 3x", ratio)
	}
}

// TestLeasedMessageSurvivesReuse pins the ownership rule: a message the
// handler leased stays intact even though the buffer it was parsed from
// is recycled and other messages keep flowing through the pool.
func TestLeasedMessageSurvivesReuse(t *testing.T) {
	buf := []byte("<34>Oct 11 22:14:15 host app[7]: first payload")
	m := getMessage()
	if err := ParseBytes(buf, equivalenceRef, m); err != nil {
		t.Fatal(err)
	}
	srv := &Server{Handler: HandlerFunc(func(m *Message) { m.Lease() })}
	srv.deliver([]*Message{m})
	copy(buf, []byte("<34>Oct 11 22:14:15 host app[7]: XXXXXXXXXXXXXX"))
	for i := 0; i < 64; i++ {
		m2 := getMessage()
		if m2 == m {
			t.Fatal("leased message re-entered the pool")
		}
		if err := ParseBytes([]byte("<34>Oct 11 22:14:15 other oth: noise"), equivalenceRef, m2); err != nil {
			t.Fatal(err)
		}
		messagePool.Put(m2)
	}
	if m.Content != "first payload" || m.Hostname != "host" || m.AppName != "app" {
		t.Errorf("leased message corrupted: %+v", m)
	}
}

// TestCloneOfPooledMessageCopiesStrings: a Clone taken while the message
// is still pool-owned must not alias the slab.
func TestCloneOfPooledMessageCopiesStrings(t *testing.T) {
	m := getMessage()
	if !m.pooled {
		t.Fatal("pool message not marked pooled")
	}
	if err := ParseBytes([]byte("<34>Oct 11 22:14:15 host app: keep me"), equivalenceRef, m); err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	// Reuse the original for a different frame; the clone must not change.
	if err := ParseBytes([]byte("<34>Oct 11 22:14:15 mutated mut: other"), equivalenceRef, m); err != nil {
		t.Fatal(err)
	}
	if c.Content != "keep me" || c.Hostname != "host" {
		t.Errorf("clone aliased the recycled slab: %+v", c)
	}
	if c.pooled {
		t.Error("clone still marked pooled")
	}
}

// TestCloneOfReusedByteParsedMessageCopiesStrings: Clone must deep-copy
// the slab-aliased strings of ANY byte-parsed message, not just pooled
// ones. A user reusing a non-pooled Message across ParseBytes calls (the
// documented hot-path pattern) would otherwise see earlier clones mutate
// when the slab is overwritten in place.
func TestCloneOfReusedByteParsedMessageCopiesStrings(t *testing.T) {
	m := &Message{} // ordinary heap value, never pooled
	if err := ParseBytes([]byte("<34>Oct 11 22:14:15 host app: keep me"), equivalenceRef, m); err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	if err := ParseBytes([]byte("<34>Oct 11 22:14:15 mutated mut: other"), equivalenceRef, m); err != nil {
		t.Fatal(err)
	}
	if c.Content != "keep me" || c.Hostname != "host" || c.AppName != "app" ||
		c.Raw != "<34>Oct 11 22:14:15 host app: keep me" {
		t.Errorf("clone aliased the reused slab: %+v", c)
	}
}

// TestParseBytesLongMessage exercises slab growth across reuse.
func TestParseBytesLongMessage(t *testing.T) {
	m := &Message{}
	long := "<34>Oct 11 22:14:15 host app: " + strings.Repeat("x", 4096)
	for _, raw := range []string{"<34>short: a", long, "<34>short: b"} {
		if err := ParseBytes([]byte(raw), equivalenceRef, m); err != nil {
			t.Fatalf("%q: %v", raw[:20], err)
		}
		if m.Raw != raw {
			t.Fatalf("raw mismatch after slab growth/shrink")
		}
	}
}
