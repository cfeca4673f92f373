package syslog

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"hetsyslog/internal/obs"
)

// Handler receives parsed messages from a listener. Implementations must be
// safe for concurrent use: UDP datagrams and TCP connections are handled on
// separate goroutines.
//
// Ownership: the *Message comes from the server's pool and is recycled as
// soon as the handler returns. A handler that retains it beyond the call —
// stores it, enqueues it, hands it to another goroutine — must call
// m.Lease() before returning (see Message) or work on m.Clone().
type Handler interface {
	HandleSyslog(m *Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(m *Message)

// HandleSyslog calls f(m).
func (f HandlerFunc) HandleSyslog(m *Message) { f(m) }

// BatchHandler is an optional upgrade interface for Handler: when the
// configured Handler also implements it, the server delivers one batch per
// read-loop iteration (UDP: the datagrams drained from the socket queue;
// TCP: the frames already buffered on the connection) instead of one call
// per message, amortizing downstream synchronization.
//
// Ownership matches Handler: the slice and every Message in it are valid
// only until HandleSyslogBatch returns; retain individual messages with
// Lease or Clone. Leasing a message clears its entry in ms. The slice
// itself is always reused — never keep it.
type BatchHandler interface {
	HandleSyslogBatch(ms []*Message)
}

// messagePool recycles Messages (and their materialization slabs) across
// frames. Pool-owned messages carry the pooled flag so Lease can tell
// them from plain heap values.
var messagePool = sync.Pool{New: func() any { return &Message{pooled: true} }}

func getMessage() *Message { return messagePool.Get().(*Message) }

// Recycle returns a leased message (see Message.Lease) to the server pool
// once its owner no longer references any of its strings — for the
// indexed path, the moment IndexBatch returns, since the store copies
// everything it retains. Calling Recycle on a non-leased message (a plain
// heap value, a Clone, a detached message) is a no-op, so release hooks
// can call it unconditionally. Recycle must be called at most once per
// lease and never while any string field is still held: the message slab
// is re-parsed into by the next frame that draws it from the pool.
func Recycle(m *Message) {
	if m == nil || !m.leased {
		return
	}
	m.leased = false
	m.pooled = true
	m.Reset()
	messagePool.Put(m)
}

// Server listens for syslog traffic on UDP and/or TCP and dispatches parsed
// messages to a Handler. TCP connections accept both octet-counted framing
// (RFC 6587 §3.4.1) and LF-delimited framing (§3.4.2), auto-detected per
// message. Unparseable datagrams are counted and dropped, mirroring how
// rsyslog treats garbage input.
type Server struct {
	Handler Handler

	// MaxBatch caps how many messages a read-loop iteration accumulates
	// before delivering to a BatchHandler (and bounds the drain window on
	// UDP). Defaults to DefaultMaxBatch; irrelevant when the Handler does
	// not implement BatchHandler beyond bounding pool residency.
	MaxBatch int

	// Now supplies the reference time for year-less RFC 3164 timestamps.
	// Defaults to time.Now.
	Now func() time.Time

	// Metrics optionally publishes the server's counters (received,
	// dropped, frames by transport) into a shared registry; set it before
	// the first Listen call. Left nil the same counters still run
	// standalone, so Stats() is always exact.
	Metrics *obs.Registry

	metricsOnce sync.Once
	received    *obs.Counter
	dropped     *obs.Counter
	framesUDP   *obs.Counter
	framesTCP   *obs.Counter

	// ingestLat/ingestBatch time and size each read-loop batch (framing +
	// parse + handler delivery, excluding the blocking first read) — the
	// ingest stage of the per-stage profiling harness. They exist only
	// with a live registry, so an unobserved server never calls time.Now
	// in its read loops.
	ingestLat   *obs.Histogram
	ingestBatch *obs.Histogram

	mu      sync.Mutex
	udpConn *net.UDPConn
	tcpLn   net.Listener
	conns   map[net.Conn]struct{}
	wg      sync.WaitGroup
	closed  bool
}

// initMetrics lazily creates the server's counters — inside Metrics when
// set, standalone otherwise (obs treats a nil registry that way).
func (s *Server) initMetrics() {
	s.metricsOnce.Do(func() {
		s.received = s.Metrics.Counter("syslog_received_total",
			"syslog messages parsed and dispatched")
		s.dropped = s.Metrics.Counter("syslog_dropped_total",
			"unparseable syslog messages dropped")
		s.framesUDP = s.Metrics.Counter(`syslog_frames_total{transport="udp"}`,
			"raw frames read, by transport")
		s.framesTCP = s.Metrics.Counter(`syslog_frames_total{transport="tcp"}`,
			"raw frames read, by transport")
		if s.Metrics != nil {
			s.ingestLat = s.Metrics.Histogram("syslog_ingest_batch_seconds",
				"per-read-loop-batch ingest latency: framing + parse + handler delivery",
				obs.LatencyBuckets)
			s.ingestBatch = s.Metrics.Histogram("syslog_ingest_batch_size",
				"messages per read-loop batch", obs.SizeBuckets)
		}
	})
}

// trackConn registers an active TCP connection so Close can tear it down;
// it reports false when the server is already closed.
func (s *Server) trackConn(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrackConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Stats reports how many messages were accepted and dropped since start.
// The values are reads of the same counters /metrics exports.
func (s *Server) Stats() (received, dropped int64) {
	s.initMetrics()
	return s.received.Value(), s.dropped.Value()
}

func (s *Server) now() time.Time {
	if s.Now != nil {
		return s.Now()
	}
	return time.Now()
}

// ListenUDP starts a UDP listener on addr ("127.0.0.1:0" picks a free
// port) and returns the bound address.
func (s *Server) ListenUDP(addr string) (net.Addr, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	s.initMetrics()
	s.mu.Lock()
	s.udpConn = conn
	s.mu.Unlock()
	s.wg.Add(1)
	go s.serveUDP(conn)
	return conn.LocalAddr(), nil
}

// DefaultMaxBatch is the per-iteration batch cap when Server.MaxBatch is
// unset.
const DefaultMaxBatch = 256

// udpDrainWindow is the read deadline used while draining already-queued
// datagrams after a blocking read delivered the first one. Long enough
// that a kernel-queued packet always makes it, short enough that a lone
// trailing message is not held back noticeably.
const udpDrainWindow = 100 * time.Microsecond

func (s *Server) maxBatch() int {
	if s.MaxBatch > 0 {
		return s.MaxBatch
	}
	return DefaultMaxBatch
}

func (s *Server) serveUDP(conn *net.UDPConn) {
	defer s.wg.Done()
	buf := make([]byte, 64*1024)
	maxBatch := s.maxBatch()
	batch := make([]*Message, 0, maxBatch)
	for {
		// First read blocks until traffic arrives.
		_ = conn.SetReadDeadline(time.Time{})
		n, _, err := conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		s.framesUDP.Inc()
		var start time.Time
		if s.ingestLat != nil {
			start = time.Now()
		}
		s.appendParsed(bytes.TrimRight(buf[:n], "\r\n\x00"), &batch)
		// Drain datagrams the kernel already queued behind it, up to
		// MaxBatch. A short *future* deadline is required: Go fails every
		// read once a deadline is in the past, even with data queued.
		for len(batch) < maxBatch {
			_ = conn.SetReadDeadline(time.Now().Add(udpDrainWindow))
			n, _, err := conn.ReadFromUDP(buf)
			if err != nil {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					break // queue drained
				}
				s.deliver(batch)
				return // closed
			}
			s.framesUDP.Inc()
			s.appendParsed(bytes.TrimRight(buf[:n], "\r\n\x00"), &batch)
		}
		n = len(batch)
		s.deliver(batch)
		s.observeIngest(start, n)
		batch = batch[:0]
	}
}

// observeIngest records one read-loop batch on the ingest-stage
// histograms; a no-op (and no time.Now call) when uninstrumented.
func (s *Server) observeIngest(start time.Time, n int) {
	if s.ingestLat == nil || n == 0 {
		return
	}
	s.ingestLat.ObserveDuration(time.Since(start))
	s.ingestBatch.Observe(float64(n))
}

// appendParsed parses one wire frame into a pooled Message and appends it
// to the batch; unparseable frames are counted and dropped, empty frames
// ignored.
func (s *Server) appendParsed(frame []byte, batch *[]*Message) {
	if len(frame) == 0 {
		return
	}
	m := getMessage()
	if err := ParseBytes(frame, s.now(), m); err != nil {
		s.dropped.Inc()
		messagePool.Put(m)
		return
	}
	s.received.Inc()
	*batch = append(*batch, m)
}

// deliver hands a batch to the Handler — one HandleSyslogBatch call when
// it implements BatchHandler, per-message HandleSyslog otherwise — then
// recycles every message a handler did not Lease. A leased message may
// already be recycled, re-drawn and re-parsed on other goroutines by the
// time the handler returns, so which messages to pool is read from the
// batch entries Lease cleared on this goroutine, never from the messages.
func (s *Server) deliver(batch []*Message) {
	if len(batch) == 0 {
		return
	}
	s.mu.Lock()
	h := s.Handler
	s.mu.Unlock()
	for i, m := range batch {
		m.slot = &batch[i]
	}
	if bh, ok := h.(BatchHandler); ok {
		bh.HandleSyslogBatch(batch)
	} else if h != nil {
		for _, m := range batch {
			h.HandleSyslog(m)
		}
	}
	for _, m := range batch {
		if m != nil {
			m.slot = nil
			messagePool.Put(m)
		}
	}
}

// ListenTCP starts a TCP listener on addr and returns the bound address.
func (s *Server) ListenTCP(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.initMetrics()
	s.mu.Lock()
	s.tcpLn = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.serveTCP(ln)
	return ln.Addr(), nil
}

func (s *Server) serveTCP(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // closed
		}
		if !s.trackConn(conn) {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrackConn(conn)
			defer conn.Close()
			s.serveConn(conn)
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	fr := NewFrameReader(conn)
	maxBatch := s.maxBatch()
	batch := make([]*Message, 0, maxBatch)
	for {
		// First frame blocks; after it, keep going only while a complete
		// frame is already sitting in the read buffer, so a batch never
		// waits on the network.
		frame, err := fr.ReadFrame()
		if err != nil {
			return
		}
		s.framesTCP.Inc()
		var start time.Time
		if s.ingestLat != nil {
			start = time.Now()
		}
		s.appendParsed(frame, &batch)
		for len(batch) < maxBatch && fr.FrameBuffered() {
			frame, err := fr.ReadFrame()
			if err != nil {
				// A framing error mid-stream leaves the byte stream
				// desynchronized; deliver what parsed and close the
				// connection, as the single-frame path does.
				s.deliver(batch)
				return
			}
			s.framesTCP.Inc()
			s.appendParsed(frame, &batch)
		}
		n := len(batch)
		s.deliver(batch)
		s.observeIngest(start, n)
		batch = batch[:0]
	}
}

// maxFrameLen caps octet-counted frame sizes (RFC 6587 leaves the limit
// to the receiver; 1 MiB comfortably exceeds any real syslog line).
const maxFrameLen = 1 << 20

// maxFrameDigits bounds the octet-count prefix to the digits of
// maxFrameLen ("1048576" = 7), so a malicious peer streaming an endless
// digit run is rejected after a handful of bytes instead of being
// buffered without limit.
const maxFrameDigits = 7

// ErrEmptyFrame reports an octet-counted frame declaring a length of
// zero. RFC 6587 gives zero-length frames no meaning, and accepting them
// would let "0 " round-trip as an invisible message.
var ErrEmptyFrame = errors.New("syslog: zero-length frame")

// FrameReader reads syslog frames from a TCP stream, auto-detecting
// octet-counted ("123 <34>...") versus LF-delimited framing per frame.
// Unlike the package-level ReadFrame it returns frames as byte slices
// aliasing internal buffers — valid only until the next ReadFrame call —
// and reuses one scratch buffer per connection, so steady-state framing
// does not allocate. It is not safe for concurrent use.
type FrameReader struct {
	r       *bufio.Reader
	scratch []byte
}

// NewFrameReader wraps r; an existing *bufio.Reader is used as-is.
func NewFrameReader(r io.Reader) *FrameReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 64*1024)
	}
	return &FrameReader{r: br}
}

// ReadFrame reads one frame. The returned slice is valid only until the
// next call.
func (fr *FrameReader) ReadFrame() ([]byte, error) {
	first, err := fr.r.Peek(1)
	if err != nil {
		return nil, err
	}
	// '1'-'9' selects octet-counted framing as before. A leading '0' is
	// ambiguous: compliant octet counts have no leading zeros, but "0 "
	// (a zero-length frame) should be rejected rather than round-trip as
	// an invisible LF line. Treat '0' as octet-counted only when the
	// lookahead confirms an all-digit, space-terminated prefix; anything
	// else (e.g. an LF line that happens to start with '0') keeps the
	// pre-existing LF-delimited behaviour.
	if first[0] >= '1' && first[0] <= '9' ||
		first[0] == '0' && fr.leadingZeroIsOctet() {
		// Octet-counted: "LEN SP MSG". Read the length digit by digit so
		// the prefix is bounded before anything is buffered.
		n, nd := 0, 0
		for {
			b, err := fr.r.ReadByte()
			if err != nil {
				return nil, err
			}
			if b == ' ' {
				break
			}
			if b < '0' || b > '9' {
				return nil, fmt.Errorf("syslog: bad frame length byte %q", b)
			}
			if nd == maxFrameDigits {
				return nil, fmt.Errorf("syslog: frame length prefix exceeds %d digits", maxFrameDigits)
			}
			n = n*10 + int(b-'0')
			nd++
		}
		if n == 0 {
			return nil, ErrEmptyFrame
		}
		if n > maxFrameLen {
			return nil, fmt.Errorf("syslog: bad frame length %d", n)
		}
		if cap(fr.scratch) < n {
			fr.scratch = make([]byte, n)
		}
		buf := fr.scratch[:n]
		if _, err := io.ReadFull(fr.r, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	// LF-delimited. ReadSlice hands back a view of the bufio buffer; only
	// lines longer than the buffer fall into the accumulate path, which
	// stops once the line is past maxFrameLen, so a peer streaming an
	// endless line is refused instead of buffered without limit.
	line, err := fr.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		fr.scratch = append(fr.scratch[:0], line...)
		for err == bufio.ErrBufferFull && len(fr.scratch) <= maxFrameLen+1 { // +1: a CRLF's CR
			line, err = fr.r.ReadSlice('\n')
			fr.scratch = append(fr.scratch, line...)
		}
		line = fr.scratch
	}
	if err != nil && len(line) == 0 {
		return nil, err
	}
	frame := bytes.TrimRight(line, "\r\n")
	if err == bufio.ErrBufferFull || len(frame) > maxFrameLen {
		return nil, fmt.Errorf("syslog: line longer than %d bytes", maxFrameLen)
	}
	return frame, nil
}

// leadingZeroIsOctet disambiguates a frame whose first byte is '0': it
// peeks ahead and reports whether the stream opens with an all-digit,
// space-terminated length prefix (octet-counted framing, e.g. the
// zero-length frame "0 "). Blocking inside Peek is acceptable here:
// whichever framing applies, ReadFrame needs the same bytes before a
// frame can complete.
func (fr *FrameReader) leadingZeroIsOctet() bool {
	for i := 1; i <= maxFrameDigits; i++ {
		b, err := fr.r.Peek(i + 1)
		if err != nil {
			return false // short stream: let the LF path surface it
		}
		switch c := b[i]; {
		case c == ' ':
			return true
		case c < '0' || c > '9':
			return false
		}
	}
	return false // more than maxFrameDigits digits: not a valid prefix
}

// FrameBuffered reports whether a complete frame is already buffered, so
// the next ReadFrame is guaranteed not to block on the network. Malformed
// buffered input also reports true: ReadFrame will fail on it without
// blocking.
func (fr *FrameReader) FrameBuffered() bool {
	n := fr.r.Buffered()
	if n == 0 {
		return false
	}
	b, _ := fr.r.Peek(n)
	if len(b) == 0 {
		return false
	}
	if b[0] >= '0' && b[0] <= '9' {
		i, ln := 0, 0
		for i < len(b) && i < maxFrameDigits && b[i] >= '0' && b[i] <= '9' {
			ln = ln*10 + int(b[i]-'0')
			i++
		}
		if i == len(b) {
			// All buffered bytes are digits: the prefix (or, for a
			// leading '0', the LF line) may still be incomplete. Even at
			// maxFrameDigits a legal prefix needs its terminating space.
			return false
		}
		if b[0] == '0' && b[i] != ' ' {
			// Leading zero without a space-terminated digit prefix:
			// ReadFrame treats this as an LF-delimited line.
			return bytes.IndexByte(b, '\n') >= 0
		}
		if b[i] != ' ' {
			return true // over-long or malformed prefix: fails fast
		}
		return len(b) >= i+1+ln
	}
	return bytes.IndexByte(b, '\n') >= 0
}

// ReadFrame reads one syslog frame from r, auto-detecting octet-counted
// ("123 <34>...") versus LF-delimited framing.
//
// Compatibility wrapper over FrameReader; the server's connection loop
// uses a per-connection FrameReader to avoid the per-frame copy.
func ReadFrame(r *bufio.Reader) (string, error) {
	fr := FrameReader{r: r}
	frame, err := fr.ReadFrame()
	if err != nil {
		return "", err
	}
	return string(frame), nil
}

// Close shuts down all listeners and waits for in-flight handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	udp, tcp := s.udpConn, s.tcpLn
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if udp != nil {
		err = errors.Join(err, udp.Close())
	}
	if tcp != nil {
		err = errors.Join(err, tcp.Close())
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}

// Sender writes syslog messages to a remote collector over TCP (with
// octet-counted framing) or UDP. It is the client side of the relay chain:
// compute node -> primary syslog server -> collector.
type Sender struct {
	mu     sync.Mutex
	conn   net.Conn
	octets bool // true for TCP octet-counted framing
	format func(*Message) string
}

// DialSender connects to addr over network ("tcp" or "udp"). format selects
// the wire format; pass FormatRFC5424 or FormatRFC3164.
func DialSender(network, addr string, format func(*Message) string) (*Sender, error) {
	conn, err := net.DialTimeout(network, addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &Sender{conn: conn, octets: network == "tcp", format: format}, nil
}

// Send transmits one message.
func (s *Sender) Send(m *Message) error {
	wire := s.format(m)
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.octets {
		_, err = fmt.Fprintf(s.conn, "%d %s", len(wire), wire)
	} else {
		_, err = io.WriteString(s.conn, wire)
	}
	return err
}

// Close closes the underlying connection.
func (s *Sender) Close() error { return s.conn.Close() }

// Relay receives messages on one listener and forwards them to a downstream
// sender, emulating the primary syslog server in the paper's topology
// (rsyslogd's builtin forwarding, §4.2.2).
type Relay struct {
	server *Server
	sender *Sender
}

// NewRelay wires a Server to forward every received message through sender.
func NewRelay(sender *Sender) *Relay {
	r := &Relay{sender: sender}
	r.server = &Server{Handler: HandlerFunc(func(m *Message) {
		// Forwarding failures are silently dropped, matching UDP syslog
		// semantics; the store-side collector owns reliability.
		_ = sender.Send(m)
	})}
	return r
}

// Server exposes the relay's listening side so callers can bind addresses.
func (r *Relay) Server() *Server { return r.server }

// Close shuts down both sides of the relay.
func (r *Relay) Close() error {
	return errors.Join(r.server.Close(), r.sender.Close())
}

// Collect drains messages from ch into a slice until ctx is done or the
// channel closes; a convenience for tests and examples.
func Collect(ctx context.Context, ch <-chan *Message) []*Message {
	var out []*Message
	for {
		select {
		case <-ctx.Done():
			return out
		case m, ok := <-ch:
			if !ok {
				return out
			}
			out = append(out, m)
		}
	}
}
