// Package workload generates the benchmark's traffic. All of it is drawn
// from one fixed corpus — 512 hosts and 4096 distinct base messages from
// the repository's own log generator — so that the properties a workload
// is chosen for (how often a message text repeats, how often only its
// template repeats, how often neither does) hold on every seed. The seed
// drives the draws: which host sends which message when, and which
// never-seen tokens a novel message carries.
//
// A record leaves the generator either as pre-framed RFC 5424
// octet-counted bytes, ready for a TCP socket, or as a parsed
// syslog.Message for the direct preload path. Its sequence number rides
// in the MSGID field, so whoever sees the record again downstream can
// tell which one it is without a side table.
package workload

import (
	"math/rand"
	"strconv"
	"time"

	"hetsyslog/internal/loggen"
	"hetsyslog/internal/syslog"
	"hetsyslog/internal/taxonomy"
)

const (
	// Hosts and BaseMessages size the fixed corpus; NodesPerRack gives
	// the 8 racks the positional view groups by (the view costs two full
	// scans per rack, so the rack count sets what a refresh costs).
	Hosts        = 512
	BaseMessages = 4096
	NodesPerRack = 64
	// ZipfS is the skew of the exact-repeat shape: rank r is drawn with
	// weight (1+r)^-ZipfS, so the first message alone is about a fifth of
	// the traffic and the first hundred about three quarters.
	ZipfS = 1.2
	// corpusSeed fixes the corpus. It is not the workload seed: changing
	// the vocabulary between runs would change what "a term in a fifth of
	// the documents" means, and with it every query's cost.
	corpusSeed = 1
	// seqDigits is the fixed width of the sequence number in MSGID.
	seqDigits = 10
)

// Shape is how much of a message the system has seen before.
type Shape int

const (
	// Exact draws base messages unchanged, Zipf-distributed: the whole
	// text repeats, so the classify cache answers from its raw level.
	Exact Shape = iota
	// Templated draws base messages uniformly and appends a fresh job
	// number: the text is new but its masked token stream is not, so the
	// cache answers from its masked level.
	Templated
	// Novel draws base messages uniformly and appends two alphabetic
	// tokens from a 2^20 pool each: nothing masks them, so both cache
	// levels miss and the model runs.
	Novel
)

func (s Shape) String() string {
	switch s {
	case Exact:
		return "exact"
	case Templated:
		return "templated"
	case Novel:
		return "novel"
	}
	return "shape(" + strconv.Itoa(int(s)) + ")"
}

// Base is one base message of the corpus.
type Base struct {
	Body     string
	App      string
	Severity syslog.Severity
	Facility syslog.Facility
	// Category is the generator's ground-truth label.
	Category taxonomy.Category

	head []byte // "<PRI>1 ", pre-rendered
}

// Corpus is the fixed vocabulary every workload draws from.
type Corpus struct {
	Cluster *loggen.Cluster
	Base    []Base
}

// NewCorpus builds the corpus. It is the same on every call.
func NewCorpus() *Corpus {
	g := loggen.NewGenerator(corpusSeed)
	g.Cluster = loggen.NewCluster(Hosts, NodesPerRack, corpusSeed)
	c := &Corpus{Cluster: g.Cluster, Base: make([]Base, 0, BaseMessages)}
	seen := make(map[string]bool, BaseMessages)
	for len(c.Base) < BaseMessages {
		ex := g.Example()
		if seen[ex.Text] {
			continue
		}
		seen[ex.Text] = true
		pri := syslog.Make(ex.Facility, ex.Severity)
		c.Base = append(c.Base, Base{
			Body: ex.Text, App: ex.App, Severity: ex.Severity, Facility: ex.Facility,
			Category: ex.Category,
			head:     []byte("<" + strconv.Itoa(int(pri)) + ">1 "),
		})
	}
	return c
}

// Record is one drawn message. Body is only valid until the generator's
// next draw.
type Record struct {
	Seq  uint64
	Host int
	Base int
	Body []byte
}

// Generator draws records of one shape. The same corpus, shape, seed and
// starting sequence number give the same records.
type Generator struct {
	c     *Corpus
	shape Shape
	rng   *rand.Rand
	zipf  *rand.Zipf
	seq   uint64
	body  []byte
}

// NewGenerator returns a generator whose first record has sequence number
// firstSeq.
func NewGenerator(c *Corpus, shape Shape, seed int64, firstSeq uint64) *Generator {
	rng := rand.New(rand.NewSource(seed))
	return &Generator{
		c: c, shape: shape, rng: rng, seq: firstSeq,
		zipf: rand.NewZipf(rng, ZipfS, 1, uint64(len(c.Base)-1)),
	}
}

// Seq returns the sequence number the next record will carry.
func (g *Generator) Seq() uint64 { return g.seq }

// Next draws one record.
func (g *Generator) Next() Record {
	r := Record{Seq: g.seq, Host: g.rng.Intn(len(g.c.Cluster.Nodes))}
	g.seq++
	switch g.shape {
	case Exact:
		r.Base = int(g.zipf.Uint64())
		g.body = append(g.body[:0], g.c.Base[r.Base].Body...)
	case Templated:
		r.Base = g.rng.Intn(len(g.c.Base))
		g.body = append(g.body[:0], g.c.Base[r.Base].Body...)
		g.body = append(g.body, " job="...)
		g.body = strconv.AppendUint(g.body, r.Seq, 10)
	case Novel:
		r.Base = g.rng.Intn(len(g.c.Base))
		g.body = append(g.body[:0], g.c.Base[r.Base].Body...)
		bits := g.rng.Uint64()
		g.body = append(g.body, " user=u"...)
		g.body = appendName(g.body, uint32(bits))
		g.body = append(g.body, " dev=d"...)
		g.body = appendName(g.body, uint32(bits>>20))
	}
	r.Body = g.body
	return r
}

// Sentinel returns a record no draw produces: the driver sends it last
// and waits for it, which proves everything before it on the connection
// reached its final disposition. Its text is unique per sequence number,
// so no dedup window absorbs it.
func (g *Generator) Sentinel() Record {
	r := Record{Seq: g.seq, Host: 0, Base: 0}
	g.seq++
	g.body = append(g.body[:0], "benchmark sentinel "...)
	g.body = strconv.AppendUint(g.body, r.Seq, 10)
	r.Body = g.body
	return r
}

// nameAlphabet has no vowels and none of the hex letters a-f, so a name is
// never an English word the lemmatizer rewrites and never a hex
// identifier the tokenizer masks.
const nameAlphabet = "gjklmnpqrtvwxzhy"

// appendName renders the low 20 bits of v as five letters.
func appendName(dst []byte, v uint32) []byte {
	for i := 0; i < 5; i++ {
		dst = append(dst, nameAlphabet[v&15])
		v >>= 4
	}
	return dst
}

// AppendStamp appends t as the RFC 3339 microsecond UTC timestamp the
// frames carry.
func AppendStamp(dst []byte, t time.Time) []byte {
	return t.UTC().AppendFormat(dst, "2006-01-02T15:04:05.000000Z")
}

// AppendFrame appends r as one octet-counted RFC 5424 frame:
//
//	LEN <PRI>1 STAMP HOST APP - MSGID - BODY
//
// with the sequence number, zero-padded, as MSGID.
func (g *Generator) AppendFrame(dst []byte, r Record, stamp []byte) []byte {
	b := &g.c.Base[r.Base]
	host := g.c.Cluster.Nodes[r.Host].Name
	n := len(b.head) + len(stamp) + 1 + len(host) + 1 + len(b.App) + 3 + seqDigits + 3 + len(r.Body)
	dst = strconv.AppendInt(dst, int64(n), 10)
	dst = append(dst, ' ')
	dst = append(dst, b.head...)
	dst = append(dst, stamp...)
	dst = append(dst, ' ')
	dst = append(dst, host...)
	dst = append(dst, ' ')
	dst = append(dst, b.App...)
	dst = append(dst, " - "...)
	dst = appendSeq(dst, r.Seq)
	dst = append(dst, " - "...)
	return append(dst, r.Body...)
}

func appendSeq(dst []byte, seq uint64) []byte {
	var d [seqDigits]byte
	for i := seqDigits - 1; i >= 0; i-- {
		d[i] = byte('0' + seq%10)
		seq /= 10
	}
	return append(dst, d[:]...)
}

// ParseSeq reads a sequence number back out of a MSGID.
func ParseSeq(msgid string) (uint64, bool) {
	if len(msgid) != seqDigits {
		return 0, false
	}
	var v uint64
	for i := 0; i < seqDigits; i++ {
		c := msgid[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, true
}

// Message returns r as the parsed message the syslog listener would have
// produced from its frame, for the paths that bypass the socket.
func (g *Generator) Message(r Record, t time.Time) *syslog.Message {
	b := &g.c.Base[r.Base]
	return &syslog.Message{
		Facility:  b.Facility,
		Severity:  b.Severity,
		Timestamp: t,
		Hostname:  g.c.Cluster.Nodes[r.Host].Name,
		AppName:   b.App,
		MsgID:     string(appendSeq(nil, r.Seq)),
		Content:   string(r.Body),
	}
}
