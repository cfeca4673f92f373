package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// Binary read codec (TVR): the form of a read between a cluster front and
// its nodes, served on POST /read beside the public JSON routes. A request
// is the read's op byte, its parameters and its query, in the canonical
// binary form the store's per-shard view keys are written in (view.go), so
// one encoding of a Query is a node's view key, a front's cache key and the
// wire form alike:
//
//	request  := magic("TVR") version(0x01) op params query
//	params   := (count) nothing | (hist) varint(intervalNanos)
//	          | (terms) string(field) varint(size) | (search) varint(size) flag(asc)
//	query    := 'A' | 'T' string(field) string(value) | 'M' string(text)
//	          | 'R' stamp(from) stamp(to) | 'B' clauses(must) clauses(should) clauses(mustNot)
//	clauses  := varint(n) query*
//	stamp    := 0x00 (the zero time) | 0x01 varint(unixSeconds) varint(nanos)
//	string   := uvarint(len) bytes
//
// The answers: a count is magic uvarint(n); a sparse histogram is magic
// uvarint(n) (varint(sec) varint(nanos) uvarint(count))*, ascending; terms
// are magic uvarint(n) (string(value) uvarint(count))*; search hits are a
// TVD doc payload (codec.go), which carries each hit's id, time, body and
// fields. Strings are raw bytes, so a read answers exactly the bytes the
// router stored, where the JSON routes replace invalid UTF-8 with U+FFFD.
//
// A front and its nodes upgrade together: a request in a version this build
// does not speak is answered 415, garbage 400.

// ReadContentType is the Content-Type of POST /read requests and answers.
const ReadContentType = "application/x-tivan-read"

// readMagic brands read requests and answers; the 4th byte is the version.
var readMagic = [4]byte{'T', 'V', 'R', readVersion}

const readVersion = 0x01

// MaxQueryDepth bounds how deeply a decoded read request's Bool clauses may
// nest. The JSON DSL nests at most about 3 300 Bools (encoding/json stops at
// 10 000 levels, and each Bool takes three), and a front adds one when it
// restricts a query to partitions, so whatever a public route accepts fits.
const MaxQueryDepth = 4096

// ReadOp names a read; its value is the read's view-key op byte.
type ReadOp byte

const (
	ReadCount  = ReadOp(opCount)
	ReadHist   = ReadOp(opHist)
	ReadTerms  = ReadOp(opTerms)
	ReadSearch = ReadOp(opSearch)
)

// ReadRequest is one read on the binary hop: Op and its parameters.
type ReadRequest struct {
	Op    ReadOp
	Query Query
	// Interval is ReadHist's bucket width.
	Interval time.Duration
	// Field is ReadTerms' grouped field.
	Field string
	// Size bounds ReadTerms' buckets and ReadSearch's hits, as Querier does.
	Size int
	// SortAsc orders ReadSearch's hits oldest first.
	SortAsc bool
}

// ReadAnswer is a read's answer: the field its request's Op names is set.
type ReadAnswer struct {
	Count   int
	Buckets []HistogramBucket // sparse, ascending by Start
	Terms   []TermBucket
	Hits    []Hit
}

// Append appends the request's encoding to dst. Encoding cannot fail: the
// Query AST is sealed, and nil encodes as MatchAll.
func (r *ReadRequest) Append(dst []byte) []byte {
	k := viewKey{b: append(dst, readMagic[:]...)}
	k.b = append(k.b, byte(r.Op))
	switch r.Op {
	case ReadHist:
		k.num(int64(r.Interval))
	case ReadTerms:
		k.str(r.Field).num(int64(r.Size))
	case ReadSearch:
		k.num(int64(r.Size)).flag(r.SortAsc)
	}
	return k.query(r.Query).b
}

// DecodeReadRequest parses a request. One string conversion of the payload
// backs every string of the decoded query, and every list is sized by what
// the payload's remaining bytes can hold, so decoding allocates in
// proportion to the payload whatever counts it claims. A payload with the
// magic but a foreign version returns ErrCodecVersion; anything else
// malformed returns a plain error.
func DecodeReadRequest(payload []byte) (ReadRequest, error) {
	d, err := newReadDecoder(payload)
	if err != nil {
		return ReadRequest{}, err
	}
	r := ReadRequest{Op: ReadOp(d.next())}
	switch r.Op {
	case ReadCount:
	case ReadHist:
		r.Interval = time.Duration(d.varint())
	case ReadTerms:
		if r.Field = d.str(); r.Field == "" && d.err == nil {
			d.fail("terms field empty")
		}
		r.Size = int(d.varint())
	case ReadSearch:
		r.Size = int(d.varint())
		r.SortAsc = d.flag()
	default:
		d.fail(fmt.Sprintf("unknown op %d", r.Op))
	}
	r.Query = d.query(1)
	if err := d.end(); err != nil {
		return ReadRequest{}, err
	}
	return r, nil
}

// AppendReadAnswer appends the encoding of a, the answer to an op read, to
// dst.
func AppendReadAnswer(dst []byte, op ReadOp, a *ReadAnswer) []byte {
	if op == ReadSearch {
		dst = AppendDocsHeader(dst, len(a.Hits))
		for i := range a.Hits {
			dst = AppendDoc(dst, &a.Hits[i].Doc)
		}
		return dst
	}
	dst = append(dst, readMagic[:]...)
	switch op {
	case ReadCount:
		dst = binary.AppendUvarint(dst, uint64(a.Count))
	case ReadHist:
		dst = binary.AppendUvarint(dst, uint64(len(a.Buckets)))
		for _, b := range a.Buckets {
			dst = binary.AppendVarint(dst, b.Start.Unix())
			dst = binary.AppendVarint(dst, int64(b.Start.Nanosecond()))
			dst = binary.AppendUvarint(dst, uint64(b.Count))
		}
	case ReadTerms:
		dst = binary.AppendUvarint(dst, uint64(len(a.Terms)))
		for _, t := range a.Terms {
			dst = appendCodecString(dst, t.Value)
			dst = binary.AppendUvarint(dst, uint64(t.Count))
		}
	}
	return dst
}

// DecodeReadAnswer parses the answer to an op read. Like DecodeDocs it
// makes one string conversion of the payload for all the answer's strings,
// so the caller may reuse the payload once it returns.
func DecodeReadAnswer(op ReadOp, payload []byte) (ReadAnswer, error) {
	var a ReadAnswer
	if op == ReadSearch {
		docs, err := DecodeDocs(payload, nil)
		if err != nil {
			return a, err
		}
		if len(docs) > 0 {
			a.Hits = make([]Hit, len(docs))
			for i := range docs {
				a.Hits[i].Doc = docs[i]
			}
		}
		return a, nil
	}
	d, err := newReadDecoder(payload)
	if err != nil {
		return a, err
	}
	switch op {
	case ReadCount:
		a.Count = d.count(0)
	case ReadHist:
		// A bucket takes at least 3 bytes.
		if n := d.count(3); n > 0 {
			a.Buckets = make([]HistogramBucket, n)
			for i := range a.Buckets {
				sec := d.varint()
				a.Buckets[i] = HistogramBucket{Start: unixUTC(sec, d.nanos()), Count: d.count(0)}
			}
		}
	case ReadTerms:
		// A bucket takes at least 2 bytes.
		if n := d.count(2); n > 0 {
			a.Terms = make([]TermBucket, n)
			for i := range a.Terms {
				v := d.str()
				a.Terms[i] = TermBucket{Value: v, Count: d.count(0)}
			}
		}
	default:
		return a, fmt.Errorf("store: read answer for unknown op %d", op)
	}
	if err := d.end(); err != nil {
		return ReadAnswer{}, err
	}
	return a, nil
}

// readDecoder reads a TVR payload. The first malformed field sets err; the
// reads after it return zero values, and end reports it.
type readDecoder struct {
	p    []byte
	pool string // one copy of p, which decoded strings slice
	i    int
	err  error
}

func newReadDecoder(payload []byte) (readDecoder, error) {
	if len(payload) < len(readMagic) {
		return readDecoder{}, fmt.Errorf("store: read codec payload truncated (%d bytes)", len(payload))
	}
	if payload[0] != 'T' || payload[1] != 'V' || payload[2] != 'R' {
		return readDecoder{}, errors.New("store: read codec magic missing")
	}
	if payload[3] != readVersion {
		return readDecoder{}, fmt.Errorf("%w %d", ErrCodecVersion, payload[3])
	}
	return readDecoder{p: payload, pool: string(payload), i: len(readMagic)}, nil
}

func (d *readDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("store: read codec %s at byte %d", what, d.i)
	}
}

// end reports the first error, or trailing bytes.
func (d *readDecoder) end() error {
	if d.err == nil && d.i != len(d.p) {
		d.fail(fmt.Sprintf("payload has %d trailing bytes", len(d.p)-d.i))
	}
	return d.err
}

func (d *readDecoder) next() byte {
	if d.err != nil {
		return 0
	}
	if d.i >= len(d.p) {
		d.fail("truncated")
		return 0
	}
	d.i++
	return d.p[d.i-1]
}

func (d *readDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, w := binary.Uvarint(d.p[d.i:])
	if w <= 0 {
		d.fail("uvarint corrupt")
		return 0
	}
	d.i += w
	return v
}

func (d *readDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, w := binary.Varint(d.p[d.i:])
	if w <= 0 {
		d.fail("varint corrupt")
		return 0
	}
	d.i += w
	return v
}

// count reads a count of items that take at least each bytes apiece; a
// count the remaining bytes cannot hold is corruption. each == 0 reads a
// plain non-negative number.
func (d *readDecoder) count(each int) int {
	n := d.uvarint()
	if each > 0 && n > uint64((len(d.p)-d.i)/each) || n > math.MaxInt {
		d.fail(fmt.Sprintf("count %d exceeds payload", n))
		return 0
	}
	return int(n)
}

func (d *readDecoder) nanos() int64 {
	n := d.varint()
	if n < 0 || n >= 1_000_000_000 {
		d.fail("nanos corrupt")
		return 0
	}
	return n
}

func (d *readDecoder) str() string {
	l := d.uvarint()
	if d.err != nil {
		return ""
	}
	if l > uint64(len(d.p)-d.i) {
		d.fail("string corrupt")
		return ""
	}
	s := d.pool[d.i : d.i+int(l)]
	d.i += int(l)
	return s
}

func (d *readDecoder) flag() bool {
	switch d.next() {
	case 0:
		return false
	case 1:
		return true
	}
	d.fail("flag corrupt")
	return false
}

func (d *readDecoder) stamp() time.Time {
	if !d.flag() {
		return time.Time{}
	}
	sec := d.varint()
	t := unixUTC(sec, d.nanos())
	if t.IsZero() && d.err == nil {
		// The zero time is written as its own flag, never as an instant.
		d.fail("stamp not canonical")
	}
	return t
}

// query reads one query node at nesting depth depth (the top is 1).
func (d *readDecoder) query(depth int) Query {
	if depth > MaxQueryDepth {
		d.fail(fmt.Sprintf("query nested deeper than %d", MaxQueryDepth))
		return nil
	}
	switch d.next() {
	case 'A':
		return MatchAll{}
	case 'T':
		field := d.str()
		return Term{Field: field, Value: d.str()}
	case 'M':
		return Match{Text: d.str()}
	case 'R':
		from := d.stamp()
		return TimeRange{From: from, To: d.stamp()}
	case 'B':
		var b Bool
		for _, clauses := range [...]*[]Query{&b.Must, &b.Should, &b.MustNot} {
			// A clause takes at least one byte.
			n := int(d.varint())
			if n < 0 || n > len(d.p)-d.i {
				d.fail(fmt.Sprintf("clause count %d exceeds payload", n))
				return nil
			}
			if n == 0 {
				continue
			}
			*clauses = make([]Query, n)
			for i := range *clauses {
				if (*clauses)[i] = d.query(depth + 1); d.err != nil {
					return nil
				}
			}
		}
		return b
	}
	d.fail("query node unknown")
	return nil
}
