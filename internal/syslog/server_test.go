package syslog

import (
	"bufio"
	"strings"
	"sync"
	"testing"
	"time"

	"hetsyslog/internal/obs"
)

// gather is a Handler that appends into a slice under a mutex. It retains
// the messages past the handler return, so it must Lease them from the
// server's pool (the ownership rule every retaining Handler follows).
type gather struct {
	mu   sync.Mutex
	msgs []*Message
}

func (g *gather) HandleSyslog(m *Message) {
	g.mu.Lock()
	g.msgs = append(g.msgs, m.Lease())
	g.mu.Unlock()
}

func (g *gather) wait(t *testing.T, n int) []*Message {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		g.mu.Lock()
		if len(g.msgs) >= n {
			out := append([]*Message(nil), g.msgs...)
			g.mu.Unlock()
			return out
		}
		g.mu.Unlock()
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d messages", n)
	return nil
}

func testMessage(content string) *Message {
	return &Message{
		Facility: Daemon, Severity: Warning,
		Timestamp: time.Date(2023, 7, 1, 12, 0, 0, 0, time.UTC),
		Hostname:  "cn7", AppName: "kernel",
		Content: content,
	}
}

func TestServerUDP(t *testing.T) {
	g := &gather{}
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
	for i := 0; i < 10; i++ {
		if err := snd.Send(testMessage("thermal event")); err != nil {
			t.Fatal(err)
		}
	}
	msgs := g.wait(t, 10)
	if msgs[0].Content != "thermal event" || msgs[0].Hostname != "cn7" {
		t.Errorf("message = %+v", msgs[0])
	}
	recv, drop := srv.Stats()
	if recv < 10 || drop != 0 {
		t.Errorf("stats = %d received, %d dropped", recv, drop)
	}
}

func TestServerTCPOctetCounted(t *testing.T) {
	g := &gather{}
	srv := &Server{Handler: g}
	addr, err := srv.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	snd, err := DialSender("tcp", addr.String(), FormatRFC5424)
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()
	for i := 0; i < 25; i++ {
		if err := snd.Send(testMessage("slurmd: node registration")); err != nil {
			t.Fatal(err)
		}
	}
	msgs := g.wait(t, 25)
	if len(msgs) < 25 {
		t.Fatalf("got %d messages", len(msgs))
	}
}

func TestReadFrameLFDelimited(t *testing.T) {
	r := bufio.NewReader(strings.NewReader("<34>Oct 11 22:14:15 h su: one\n<34>Oct 11 22:14:15 h su: two\n"))
	f1, err := ReadFrame(r)
	if err != nil || !strings.HasSuffix(f1, "one") {
		t.Fatalf("frame1 = %q err=%v", f1, err)
	}
	f2, err := ReadFrame(r)
	if err != nil || !strings.HasSuffix(f2, "two") {
		t.Fatalf("frame2 = %q err=%v", f2, err)
	}
}

func TestReadFrameOctetCounted(t *testing.T) {
	msg := "<34>1 - h a p m - hi"
	r := bufio.NewReader(strings.NewReader("20 " + msg))
	f, err := ReadFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	if f != msg {
		t.Errorf("frame = %q, want %q", f, msg)
	}
}

func TestReadFrameBadLength(t *testing.T) {
	r := bufio.NewReader(strings.NewReader("99999999999 x"))
	if _, err := ReadFrame(r); err == nil {
		t.Error("expected error for oversized frame length")
	}
}

func TestServerDropsGarbage(t *testing.T) {
	g := &gather{}
	srv := &Server{Handler: g}
	addr, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	snd, err := DialSender("udp", addr.String(), func(*Message) string { return "garbage with no pri" })
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()
	for i := 0; i < 5; i++ {
		_ = snd.Send(testMessage("x"))
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, dropped := srv.Stats(); dropped >= 5 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, dropped := srv.Stats()
	t.Fatalf("dropped = %d, want >= 5", dropped)
}

func TestRelayForwards(t *testing.T) {
	// downstream server
	g := &gather{}
	down := &Server{Handler: g}
	downAddr, err := down.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer down.Close()

	// relay: UDP in, TCP out
	snd, err := DialSender("tcp", downAddr.String(), FormatRFC5424)
	if err != nil {
		t.Fatal(err)
	}
	relay := NewRelay(snd)
	relayAddr, err := relay.Server().ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	src, err := DialSender("udp", relayAddr.String(), FormatRFC5424)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for i := 0; i < 8; i++ {
		if err := src.Send(testMessage("forwarded")); err != nil {
			t.Fatal(err)
		}
	}
	msgs := g.wait(t, 8)
	if msgs[0].Content != "forwarded" {
		t.Errorf("relayed message = %+v", msgs[0])
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv := &Server{}
	if _, err := srv.ListenUDP("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServerCloseWithOpenConnection guards against the shutdown hang where
// Close waited on handler goroutines blocked reading from still-open TCP
// connections.
func TestServerCloseWithOpenConnection(t *testing.T) {
	srv := &Server{Handler: &gather{}}
	addr, err := srv.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	snd, err := DialSender("tcp", addr.String(), FormatRFC5424)
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()
	if err := snd.Send(testMessage("hello")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with an open client connection")
	}
}

func TestReadFrameOversizedPrefix(t *testing.T) {
	// A malicious peer streaming an endless digit run must be rejected
	// after maxFrameDigits bytes, not buffered until memory runs out.
	longRun := strings.Repeat("9", 1<<22)
	r := bufio.NewReader(strings.NewReader(longRun))
	if _, err := ReadFrame(r); err == nil {
		t.Fatal("expected error for unbounded digit run")
	}

	// Eight digits exceed the prefix bound even with a space following.
	r = bufio.NewReader(strings.NewReader("10485760 x"))
	if _, err := ReadFrame(r); err == nil {
		t.Error("expected error for 8-digit length prefix")
	}

	// Non-digit garbage inside the prefix is rejected.
	r = bufio.NewReader(strings.NewReader("12a4 x"))
	if _, err := ReadFrame(r); err == nil {
		t.Error("expected error for non-digit in length prefix")
	}

	// The maximum legal frame still parses.
	payload := strings.Repeat("x", maxFrameLen)
	r = bufio.NewReader(strings.NewReader("1048576 " + payload))
	f, err := ReadFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != maxFrameLen {
		t.Errorf("frame len = %d, want %d", len(f), maxFrameLen)
	}
}

func TestReadFrameOversizedLine(t *testing.T) {
	// An LF line of maxFrameLen bytes is the longest frame taken; one byte
	// more, or a line that never ends, is refused rather than buffered.
	line := strings.Repeat("x", maxFrameLen)
	f, err := ReadFrame(bufio.NewReader(strings.NewReader(line + "\r\n")))
	if err != nil || len(f) != maxFrameLen {
		t.Fatalf("maxFrameLen line: len %d, err %v", len(f), err)
	}
	for _, stream := range []string{line + "x\n", strings.Repeat("x", 1<<22)} {
		if _, err := ReadFrame(bufio.NewReader(strings.NewReader(stream))); err == nil {
			t.Errorf("%d-byte line: no error", len(stream))
		}
	}
}

func TestServerMetricsRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	g := &gather{}
	srv := &Server{Handler: g, Metrics: reg}
	ua, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ta, err := srv.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	us, err := DialSender("udp", ua.String(), FormatRFC5424)
	if err != nil {
		t.Fatal(err)
	}
	defer us.Close()
	ts, err := DialSender("tcp", ta.String(), FormatRFC5424)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	for i := 0; i < 3; i++ {
		if err := us.Send(testMessage("udp msg")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := ts.Send(testMessage("tcp msg")); err != nil {
			t.Fatal(err)
		}
	}
	g.wait(t, 5)

	received, dropped := srv.Stats()
	if received != 5 || dropped != 0 {
		t.Errorf("Stats = %d/%d, want 5/0", received, dropped)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"syslog_received_total 5",
		`syslog_frames_total{transport="udp"} 3`,
		`syslog_frames_total{transport="tcp"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}
