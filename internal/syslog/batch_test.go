package syslog

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// batchGather records BatchHandler deliveries: every message (detached, per
// the ownership rule) plus the size of each batch. HandleSyslog records a
// stray single delivery — the server must never use it when the handler
// implements BatchHandler.
type batchGather struct {
	mu      sync.Mutex
	msgs    []*Message
	batches []int
	singles int
}

func (g *batchGather) HandleSyslog(m *Message) {
	g.mu.Lock()
	g.singles++
	g.msgs = append(g.msgs, m.Lease())
	g.mu.Unlock()
}

func (g *batchGather) HandleSyslogBatch(ms []*Message) {
	g.mu.Lock()
	g.batches = append(g.batches, len(ms))
	for _, m := range ms {
		g.msgs = append(g.msgs, m.Lease())
	}
	g.mu.Unlock()
}

func (g *batchGather) wait(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		g.mu.Lock()
		got := len(g.msgs)
		g.mu.Unlock()
		if got >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	t.Fatalf("timed out: %d of %d messages", len(g.msgs), n)
}

func TestServerUDPBatchDelivery(t *testing.T) {
	g := &batchGather{}
	srv := &Server{Handler: g}
	addr, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	snd, err := DialSender("udp", addr.String(), FormatRFC5424)
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()
	const n = 40
	for i := 0; i < n; i++ {
		if err := snd.Send(testMessage(fmt.Sprintf("burst %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	g.wait(t, n)

	g.mu.Lock()
	defer g.mu.Unlock()
	if g.singles != 0 {
		t.Errorf("server used HandleSyslog %d times despite BatchHandler", g.singles)
	}
	total := 0
	for _, sz := range g.batches {
		if sz < 1 || sz > DefaultMaxBatch {
			t.Errorf("batch size %d outside [1, %d]", sz, DefaultMaxBatch)
		}
		total += sz
	}
	if total != n {
		t.Errorf("batched messages = %d, want %d", total, n)
	}
	recv, drop := srv.Stats()
	if recv != n || drop != 0 {
		t.Errorf("Stats = %d/%d, want %d/0", recv, drop, n)
	}
	for i, m := range g.msgs {
		if m.Hostname != "cn7" || !strings.HasPrefix(m.Content, "burst ") {
			t.Fatalf("message %d corrupted: %+v", i, m)
		}
	}
}

// TestServerTCPBatchRespectsMaxBatch writes many frames in a single TCP
// segment so the server's drain loop sees them all buffered at once, and
// checks the batches arrive intact and capped at MaxBatch.
func TestServerTCPBatchRespectsMaxBatch(t *testing.T) {
	g := &batchGather{}
	srv := &Server{Handler: g, MaxBatch: 4}
	addr, err := srv.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const n = 21
	var sb strings.Builder
	for i := 0; i < n; i++ {
		wire := FormatRFC5424(testMessage(fmt.Sprintf("frame %d", i)))
		fmt.Fprintf(&sb, "%d %s", len(wire), wire)
	}
	if _, err := conn.Write([]byte(sb.String())); err != nil {
		t.Fatal(err)
	}
	g.wait(t, n)

	g.mu.Lock()
	defer g.mu.Unlock()
	if g.singles != 0 {
		t.Errorf("server used HandleSyslog %d times despite BatchHandler", g.singles)
	}
	total := 0
	for _, sz := range g.batches {
		if sz > 4 {
			t.Errorf("batch size %d exceeds MaxBatch 4", sz)
		}
		total += sz
	}
	if total != n {
		t.Errorf("batched messages = %d, want %d", total, n)
	}
	// Delivery order within a connection is the wire order.
	for i, m := range g.msgs {
		if want := fmt.Sprintf("frame %d", i); m.Content != want {
			t.Fatalf("message %d = %q, want %q", i, m.Content, want)
		}
	}
	recv, drop := srv.Stats()
	if recv != n || drop != 0 {
		t.Errorf("Stats = %d/%d, want %d/0", recv, drop, n)
	}
}

func TestReadFrameRejectsEmptyOctetFrame(t *testing.T) {
	fr := NewFrameReader(strings.NewReader("0 <34>hidden"))
	if _, err := fr.ReadFrame(); !errors.Is(err, ErrEmptyFrame) {
		t.Errorf("err = %v, want ErrEmptyFrame", err)
	}
	// The package-level wrapper surfaces the same typed error.
	if _, err := ReadFrame(bufio.NewReader(strings.NewReader("0 x"))); !errors.Is(err, ErrEmptyFrame) {
		t.Errorf("wrapper err = %v, want ErrEmptyFrame", err)
	}
}

// TestReadFrameLeadingZeroLFLine: an LF-delimited line that happens to
// start with '0' is not an octet-count prefix (compliant counts have no
// leading zeros); it must be delivered as a normal line, as it was before
// the zero-length-frame hardening.
func TestReadFrameLeadingZeroLFLine(t *testing.T) {
	fr := NewFrameReader(strings.NewReader("0hello\n07:00 up\n3 abc"))
	for i, want := range []string{"0hello", "07:00 up", "abc"} {
		f, err := fr.ReadFrame()
		if err != nil || string(f) != want {
			t.Fatalf("frame %d = %q err=%v, want %q", i, f, err, want)
		}
	}
}

// TestServerTCPBatchClosesOnFramingError: a malformed octet-count prefix
// inside the drain loop desynchronizes the byte stream; the server must
// deliver what already parsed and close the connection rather than resume
// reading garbage.
func TestServerTCPBatchClosesOnFramingError(t *testing.T) {
	g := &batchGather{}
	srv := &Server{Handler: g}
	addr, err := srv.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wire := FormatRFC5424(testMessage("before the tear"))
	// One segment: a valid frame, a malformed prefix, then a frame that
	// must NOT be ingested from the desynchronized stream.
	tail := FormatRFC5424(testMessage("after the tear"))
	frame := fmt.Sprintf("%d %s99x garbage%d %s", len(wire), wire, len(tail), tail)
	if _, err := conn.Write([]byte(frame)); err != nil {
		t.Fatal(err)
	}
	g.wait(t, 1)

	// The server closes its side; the client read must hit EOF.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection still open after framing error")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.msgs) != 1 || g.msgs[0].Content != "before the tear" {
		t.Fatalf("delivered %d messages, want the single pre-error frame: %+v", len(g.msgs), g.msgs)
	}
}

// TestFrameReaderScratchReuse pins the documented contract: a returned
// frame is valid only until the next ReadFrame, because the octet path
// reuses one per-connection scratch buffer instead of allocating per frame.
func TestFrameReaderScratchReuse(t *testing.T) {
	fr := NewFrameReader(strings.NewReader("5 first6 second3 two"))
	f1, err := fr.ReadFrame()
	if err != nil || string(f1) != "first" {
		t.Fatalf("frame1 = %q err=%v", f1, err)
	}
	saved := string(f1) // materialize before the buffer is reused
	f2, err := fr.ReadFrame()
	if err != nil || string(f2) != "second" {
		t.Fatalf("frame2 = %q err=%v", f2, err)
	}
	if saved != "first" {
		t.Errorf("copied frame1 changed to %q", saved)
	}
	f3, err := fr.ReadFrame()
	if err != nil || string(f3) != "two" {
		t.Fatalf("frame3 = %q err=%v", f3, err)
	}
}

func TestFrameBuffered(t *testing.T) {
	// Everything a strings.Reader holds lands in the bufio buffer on the
	// first fill, so after one ReadFrame the reader can report precisely on
	// what remains.
	cases := []struct {
		name    string
		stream  string
		want    bool // FrameBuffered after consuming the first frame
		explain string
	}{
		{"complete_octet", "5 hello3 abc", true, "full second frame buffered"},
		{"short_octet_payload", "5 hello9 abc", false, "declared 9, only 3 buffered"},
		{"incomplete_prefix", "5 hello12", false, "length prefix still incomplete"},
		{"seven_digit_prefix", "5 hello1048576", false, "7-digit prefix is legal but its space has not arrived"},
		{"overlong_prefix", "5 hello12345678 x", true, "8-digit prefix fails fast"},
		{"malformed_prefix", "5 hello12x4 y", true, "malformed prefix fails fast"},
		{"lf_frame", "5 hello<34>next\n", true, "newline-terminated frame buffered"},
		{"lf_partial", "5 hello<34>torn", false, "no newline yet"},
		{"zero_lf_frame", "5 hello0abc\n", true, "leading-zero LF line with newline buffered"},
		{"zero_lf_partial", "5 hello0abc", false, "leading-zero LF line, no newline yet"},
		{"zero_octet", "5 hello0 x", true, "zero-length octet frame fails fast"},
		{"drained", "5 hello", false, "nothing left"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fr := NewFrameReader(strings.NewReader(tc.stream))
			if f, err := fr.ReadFrame(); err != nil || string(f) != "hello" {
				t.Fatalf("first frame = %q err=%v", f, err)
			}
			if got := fr.FrameBuffered(); got != tc.want {
				t.Errorf("FrameBuffered = %v, want %v (%s)", got, tc.want, tc.explain)
			}
		})
	}
}

// TestDeliverPoolsOnlyUnleased: after the handler returns, deliver pools
// the messages the handler left alone and never a leased one, whose
// aliased strings a later parse would overwrite. It decides from the
// batch entries Lease cleared, so a lease already recycled elsewhere
// (pooled flag set again) is still not pooled a second time.
func TestDeliverPoolsOnlyUnleased(t *testing.T) {
	leased, left := getMessage(), getMessage()
	batch := []*Message{leased, left}
	srv := &Server{Handler: HandlerFunc(func(m *Message) {
		if m == leased {
			m.Lease()
			Recycle(m) // the new owner is done before the handler returns
		}
	})}
	srv.deliver(batch)
	if batch[0] != nil || batch[1] != left {
		t.Fatalf("batch after deliver = %v, want the leased entry cleared only", batch)
	}
	if leased.slot != nil || left.slot != nil {
		t.Error("deliver left a slot pointer behind")
	}
	// Recycle pooled the lease once; deliver must not have pooled it again.
	seen := 0
	for i := 0; i < 64; i++ {
		if getMessage() == leased {
			seen++
		}
	}
	if seen > 1 {
		t.Fatalf("leased message drawn from the pool %d times: pooled twice", seen)
	}
}
