package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// Binary doc codec (TVD): the compact wire form of a document batch, used
// by cluster routers POSTing to /index/batch and, byte for byte, as their
// per-node spool frames. The JSON form it replaced there spent most of the
// cluster hop's CPU on marshaling field maps and escaping bodies — and did
// it once per *replica*, not once per batch. The binary form is a flat
// length-prefixed layout that encodes with nothing but appends and decodes
// with one backing-string allocation for the whole batch:
//
//	payload  := magic("TVD") version(0x01) uvarint(nDocs) doc*
//	doc      := varint(id) varint(unixSeconds) uvarint(nanos)
//	            string(body) uvarint(nFields) (string(key) string(value))*
//	string   := uvarint(len) bytes
//
// Timestamps travel as Unix seconds + in-second nanos, which round-trips
// every time.Time instant exactly (including the zero time and pre-epoch
// values whose UnixNano would overflow); the decoded location is
// normalized to UTC, matching what the store's time comparisons and the
// JSON wire form's RFC 3339 rendering already treat as canonical. Strings
// are raw bytes: unlike JSON, which replaces invalid UTF-8 with U+FFFD,
// the binary codec is byte-exact.
//
// A request announces the codec via Content-Type; without it the body is
// the public JSON form. A node answers a payload it cannot decode with 400,
// or 415 when it carries a codec version this build does not speak.

// DocsContentType is the Content-Type announcing the binary doc codec on
// POST /index/batch.
const DocsContentType = "application/x-tivan-docs"

// docsMagic brands binary payloads; the 4th byte is the codec version.
var docsMagic = [4]byte{'T', 'V', 'D', docsVersion}

const docsVersion = 0x01

// ErrCodecVersion marks a payload carrying a codec's magic (the doc codec
// here, the read codec in readcodec.go) but a version this build does not
// speak. HTTP handlers map it to 415, so a client can tell a foreign
// payload from a broken node.
var ErrCodecVersion = errors.New("store: unsupported codec version")

// AppendDocsHeader appends the payload header for an n-doc batch to dst.
// Routers assembling per-node payloads from pre-encoded doc spans call
// this once per node, then append the spans.
func AppendDocsHeader(dst []byte, n int) []byte {
	dst = append(dst, docsMagic[:]...)
	return binary.AppendUvarint(dst, uint64(n))
}

// AppendDoc appends one document's binary encoding to dst and returns the
// grown slice. It allocates nothing beyond dst's own growth, so encoding
// into a reused buffer is allocation-free at steady state.
func AppendDoc(dst []byte, d *Doc) []byte {
	dst = binary.AppendVarint(dst, d.ID)
	dst = binary.AppendVarint(dst, d.Time.Unix())
	dst = binary.AppendUvarint(dst, uint64(d.Time.Nanosecond()))
	dst = appendCodecString(dst, d.Body)
	dst = binary.AppendUvarint(dst, uint64(len(d.Fields)))
	for i := range d.Fields {
		dst = appendCodecString(dst, d.Fields[i].K)
		dst = appendCodecString(dst, d.Fields[i].V)
	}
	return dst
}

// EncodeDocs appends the complete payload (header + every doc) to dst.
func EncodeDocs(dst []byte, docs []Doc) []byte {
	dst = AppendDocsHeader(dst, len(docs))
	for i := range docs {
		dst = AppendDoc(dst, &docs[i])
	}
	return dst
}

func appendCodecString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// DecodeDocs parses a binary payload into documents appended to dst
// (usually nil). Every string field of every returned doc is a substring
// of ONE copy of the payload, so a whole batch decodes with a single
// backing-string allocation plus the doc and field slices — the payload
// itself may be reused by the caller once DecodeDocs returns. A payload
// with the codec magic but an unknown version returns ErrCodecVersion;
// anything else malformed returns a plain error.
func DecodeDocs(payload []byte, dst []Doc) ([]Doc, error) {
	if len(payload) < len(docsMagic)+1 {
		return nil, fmt.Errorf("store: doc codec payload truncated (%d bytes)", len(payload))
	}
	if payload[0] != 'T' || payload[1] != 'V' || payload[2] != 'D' {
		return nil, errors.New("store: doc codec magic missing")
	}
	if payload[3] != docsVersion {
		return nil, fmt.Errorf("%w %d", ErrCodecVersion, payload[3])
	}
	i := len(docsMagic)
	n, w := binary.Uvarint(payload[i:])
	if w <= 0 {
		return nil, errors.New("store: doc codec count corrupt")
	}
	i += w
	// Each doc occupies at least 5 bytes and each field at least 2, so
	// the bytes that remain bound both counts: a larger claimed count is
	// corruption, not a big batch, and is rejected before anything is
	// reserved for it.
	rem := uint64(len(payload) - i)
	if n > rem/5 {
		return nil, fmt.Errorf("store: doc codec count %d exceeds payload", n)
	}
	// One conversion backs every decoded string: docs retained by the
	// store slice into it instead of allocating per field. The varint
	// overhead it pins alongside the text is a few percent of the payload.
	pool := string(payload)
	if dst == nil {
		dst = make([]Doc, 0, n)
	}
	// All docs' fields share one slab; growth mid-way strands the earlier
	// backing array but every already-built Fields slice stays valid.
	slab := make([]Field, 0, min(8*n, (rem-5*n)/2))
	readString := func() (string, error) {
		l, w := binary.Uvarint(payload[i:])
		if w <= 0 || l > uint64(len(payload)-i-w) {
			return "", errors.New("store: doc codec string corrupt")
		}
		i += w
		s := pool[i : i+int(l)]
		i += int(l)
		return s, nil
	}
	for k := uint64(0); k < n; k++ {
		var d Doc
		id, w := binary.Varint(payload[i:])
		if w <= 0 {
			return nil, errors.New("store: doc codec id corrupt")
		}
		i += w
		d.ID = id
		sec, w := binary.Varint(payload[i:])
		if w <= 0 {
			return nil, errors.New("store: doc codec time corrupt")
		}
		i += w
		nsec, w := binary.Uvarint(payload[i:])
		if w <= 0 || nsec >= 1_000_000_000 {
			return nil, errors.New("store: doc codec nanos corrupt")
		}
		i += w
		d.Time = unixUTC(sec, int64(nsec))
		body, err := readString()
		if err != nil {
			return nil, err
		}
		d.Body = body
		nf, w := binary.Uvarint(payload[i:])
		if w <= 0 || nf > uint64(len(payload)-i) {
			return nil, errors.New("store: doc codec field count corrupt")
		}
		i += w
		start := len(slab)
		for f := uint64(0); f < nf; f++ {
			k, err := readString()
			if err != nil {
				return nil, err
			}
			v, err := readString()
			if err != nil {
				return nil, err
			}
			slab = append(slab, Field{K: k, V: v})
		}
		if nf > 0 {
			d.Fields = Fields(slab[start:len(slab):len(slab)])
		}
		dst = append(dst, d)
	}
	if i != len(payload) {
		return nil, fmt.Errorf("store: doc codec payload has %d trailing bytes", len(payload)-i)
	}
	return dst, nil
}

// unixUTC rebuilds the instant encoded as Unix seconds + in-second
// nanos. time.Unix normalizes internally, so the zero time (whose Unix
// seconds are large and negative) reconstructs to a value for which
// IsZero still reports true.
func unixUTC(sec, nsec int64) time.Time {
	return time.Unix(sec, nsec).UTC()
}
