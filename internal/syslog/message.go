// Package syslog implements the syslog wire formats (RFC 3164 and RFC 5424)
// together with UDP/TCP listeners and a forwarding relay. It is the transport
// substrate of the reproduction: compute nodes emit syslog, a primary syslog
// server relays it, and the collector ingests it (paper §4.2).
package syslog

import (
	"fmt"
	"strings"
	"time"
)

// Severity is the syslog severity level (RFC 5424 §6.2.1).
type Severity int

// Severity levels, most to least severe.
const (
	Emergency Severity = iota
	Alert
	Critical
	Error
	Warning
	Notice
	Info
	Debug
)

var severityNames = [...]string{
	"emerg", "alert", "crit", "err", "warning", "notice", "info", "debug",
}

// String returns the conventional short name ("warning", "err", ...).
func (s Severity) String() string {
	if s < 0 || int(s) >= len(severityNames) {
		return fmt.Sprintf("severity(%d)", int(s))
	}
	return severityNames[s]
}

// Valid reports whether s is one of the eight defined severities.
func (s Severity) Valid() bool { return s >= Emergency && s <= Debug }

// Facility is the syslog facility code (RFC 5424 §6.2.1).
type Facility int

// Facility codes. LOCAL0..LOCAL7 are 16..23.
const (
	Kern Facility = iota
	User
	Mail
	Daemon
	Auth
	Syslog
	LPR
	News
	UUCP
	Cron
	AuthPriv
	FTP
	NTP
	LogAudit
	LogAlert
	Clock
	Local0
	Local1
	Local2
	Local3
	Local4
	Local5
	Local6
	Local7
)

var facilityNames = [...]string{
	"kern", "user", "mail", "daemon", "auth", "syslog", "lpr", "news",
	"uucp", "cron", "authpriv", "ftp", "ntp", "audit", "alert", "clock",
	"local0", "local1", "local2", "local3", "local4", "local5", "local6", "local7",
}

// String returns the conventional facility name ("daemon", "local0", ...).
func (f Facility) String() string {
	if f < 0 || int(f) >= len(facilityNames) {
		return fmt.Sprintf("facility(%d)", int(f))
	}
	return facilityNames[f]
}

// Valid reports whether f is one of the 24 defined facilities.
func (f Facility) Valid() bool { return f >= Kern && f <= Local7 }

// Priority is the combined <PRI> value: facility*8 + severity.
type Priority int

// Make combines a facility and severity into a Priority.
func Make(f Facility, s Severity) Priority { return Priority(int(f)*8 + int(s)) }

// Facility extracts the facility part of the priority.
func (p Priority) Facility() Facility { return Facility(p / 8) }

// Severity extracts the severity part of the priority.
func (p Priority) Severity() Severity { return Severity(p % 8) }

// Valid reports whether p is within the encodable range 0..191.
func (p Priority) Valid() bool { return p >= 0 && p <= 191 }

// StructuredData holds RFC 5424 structured-data elements:
// SD-ID -> param name -> param value.
type StructuredData map[string]map[string]string

// Message is a parsed syslog message, independent of wire format.
//
// RFC 3164 messages fill Facility, Severity, Timestamp, Hostname, AppName,
// ProcID and Content. RFC 5424 messages additionally carry MsgID and
// Structured. Raw preserves the original wire bytes when the message came
// off a network listener or parser.
//
// Ownership: a Message delivered by a Server's Handler (or BatchHandler)
// comes from an internal pool and is valid only until the handler
// returns. A handler that retains the message — stores it, enqueues it,
// sends it to another goroutine — calls Lease before it returns: the
// server skips recycling and ownership transfers to the handler, which
// calls Recycle at most once when it no longer references any of the
// message's strings (typically right after indexing, which copies every
// retained byte into the store's arenas). A leased message that is never
// recycled simply falls to the GC. Consumers that keep message strings
// for an unbounded time (dedup state, analysis rings) work on a Clone.
//
// Messages obtained any other way (literals, the string parsers, Clone)
// are ordinary heap values and never recycled; Lease and Recycle are
// no-ops on them.
type Message struct {
	Facility   Facility
	Severity   Severity
	Timestamp  time.Time
	Hostname   string
	AppName    string
	ProcID     string
	MsgID      string
	Structured StructuredData
	Content    string
	Raw        string

	// buf is the materialization slab for the byte parsers: one sized
	// copy of the wire frame that Raw, Hostname, AppName, ProcID, MsgID
	// and Content alias. Reset keeps it, so a pooled Message re-parses
	// without allocating.
	buf []byte
	// sdRaw is the validated-but-unparsed STRUCTURED-DATA section of a
	// byte-parsed message (a view of buf, like the other fields). The
	// byte parsers defer building the Structured maps because most
	// consumers — the collector pipeline, the store mapping — never read
	// them; SD materializes on first use.
	sdRaw string
	// pooled marks a message currently owned by a Server pool. Lease
	// clears it.
	pooled bool
	// leased marks a pool-origin message whose ownership was transferred
	// to the handler via Lease; Recycle (and only Recycle) returns it to
	// the pool.
	leased bool
	// slot points at this message's entry in the batch the Server is
	// delivering, for the duration of the handler call. Lease clears the
	// entry, so after the handler returns the server decides what to pool
	// from its own batch slice alone and never reads a message whose new
	// owner may already have recycled it on another goroutine.
	slot **Message
}

// Reset clears the message for reuse, retaining the materialization slab
// so the next byte-parse into it does not allocate.
func (m *Message) Reset() {
	buf, pooled := m.buf, m.pooled
	*m = Message{buf: buf[:0], pooled: pooled}
}

// Lease transfers ownership of a pool-owned message from the Server to
// the handler: the server will not recycle it after the handler returns,
// and the new owner calls Recycle at most once, when the message's
// strings are no longer referenced. It returns m for chaining. It must be
// called on the goroutine running the handler, before the handler
// returns. On a message that is not currently server-owned Lease does
// nothing: a plain heap value stays a plain heap value.
func (m *Message) Lease() *Message {
	if m.pooled {
		m.leased = true
		m.pooled = false
		if m.slot != nil {
			*m.slot = nil
			m.slot = nil
		}
	}
	return m
}

// Transient reports whether the message's strings have a bounded
// lifetime — it is pool-owned or leased, so it will be re-parsed after
// the current processing step releases it. Consumers that retain message
// strings beyond that point (dedup state, analysis rings) must Clone a
// transient message first.
func (m *Message) Transient() bool { return m.pooled || m.leased }

// SD returns the message's structured data, materializing it on first
// use: the byte parsers validate the SD section during parsing but defer
// building its maps until something asks for them. Reading the
// Structured field directly is still correct for messages built by hand
// or by the string parsers; SD covers both.
func (m *Message) SD() StructuredData {
	if m.Structured == nil && m.sdRaw != "" {
		// Framing and params were validated at parse time, so this
		// cannot fail on a parser-produced message.
		m.Structured, _, _ = parseStructuredDataBytes(stringBytes(m.sdRaw), 0)
	}
	return m.Structured
}

// Priority returns the combined <PRI> value of the message.
func (m *Message) Priority() Priority { return Make(m.Facility, m.Severity) }

// Tag returns the RFC 3164 style TAG: "app[pid]" or just "app".
func (m *Message) Tag() string {
	if m.AppName == "" {
		return ""
	}
	if m.ProcID == "" {
		return m.AppName
	}
	return m.AppName + "[" + m.ProcID + "]"
}

// String renders a human-oriented one-line summary (not a wire format).
func (m *Message) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s.%s %s %s", m.Facility, m.Severity,
		m.Timestamp.Format(time.RFC3339), m.Hostname)
	if tag := m.Tag(); tag != "" {
		b.WriteByte(' ')
		b.WriteString(tag)
		b.WriteByte(':')
	}
	b.WriteByte(' ')
	b.WriteString(m.Content)
	return b.String()
}

// Clone returns a deep copy of the message. The copy is always an
// ordinary heap value: cloning a byte-parsed message (pooled or not)
// copies its string fields out of the materialization slab, so the clone
// stays valid after the original is re-parsed or recycled.
func (m *Message) Clone() *Message {
	c := *m
	c.buf = nil
	c.pooled = false
	c.leased = false
	c.slot = nil
	if len(m.buf) > 0 {
		c.Hostname = strings.Clone(m.Hostname)
		c.AppName = strings.Clone(m.AppName)
		c.ProcID = strings.Clone(m.ProcID)
		c.MsgID = strings.Clone(m.MsgID)
		c.Content = strings.Clone(m.Content)
		c.Raw = strings.Clone(m.Raw)
		c.sdRaw = strings.Clone(m.sdRaw)
	}
	if m.Structured != nil {
		c.Structured = make(StructuredData, len(m.Structured))
		for id, params := range m.Structured {
			p := make(map[string]string, len(params))
			for k, v := range params {
				p[k] = v
			}
			c.Structured[id] = p
		}
	}
	return &c
}
