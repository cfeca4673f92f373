package core

import (
	"strings"
	"sync"

	"hetsyslog/internal/obs"
	"hetsyslog/internal/seen"
	"hetsyslog/internal/textproc"
	"hetsyslog/internal/tfidf"
)

// ClassifyCache exploits syslog's extreme repetitiveness (§4.4.1: 3,415
// bucket exemplars covered 196k messages) to make repeated
// classifications near-free. It is a sharded, bounded LRU with two
// levels, both mapping to a predicted label index:
//
//   - level 1 ("raw") keys on the exact message text, so an identical
//     repeat skips tokenization entirely and classifies with zero
//     allocations;
//   - level 2 ("masked") keys on the fully preprocessed token stream.
//     Numbers, hex IDs and IPs are already collapsed to mask tokens by
//     then, so one entry serves a whole template family ("CPU 7
//     throttled" and "CPU 23 throttled" share a key) and a level-2 hit
//     skips vectorization and model prediction.
//
// The cache MUST sit after masking — keying template families on raw
// variable values (distinct IPs, PIDs, temperatures) would fragment it
// into one entry per message. Level 1 is the exception: exact repeats
// are so common in syslog (storms, heartbeats) that the unmasked key
// pays for itself — but only for texts that do repeat. What templated
// traffic repeats is the template, not the text, so a level-2 hit
// promotes its text into level 1 only when the text was offered before:
// each raw shard remembers the hashes of texts seen once (a bounded set
// sized from the level's entry budget), and a text's second sight admits
// it. A full miss still stores its text at once: it is the first text of
// a new shape, and a storm repeats exactly.
//
// All methods are safe for concurrent use; each shard serializes on its
// own mutex so Workers > 1 classification scales. Entries are never
// invalidated by time: a cache in front of a drifting or retrained model
// must be discarded with the model (build a fresh one via
// NewClassifyCache) or disabled outright.
type ClassifyCache struct {
	raw    []cacheShard
	masked []cacheShard
	mask   uint64

	// Eviction counters, wired by Service.initMetrics when the cache is
	// attached to a service (standalone nil-safe otherwise).
	rawEvictions    *obs.Counter
	maskedEvictions *obs.Counter
}

// Cache sizing defaults: 8 shards balances lock contention against
// per-shard LRU quality; 32768 entries per level is a few MiB for
// typical message sizes while holding vastly more templates than the
// paper's corpus exhibited.
const (
	DefaultCacheShards = 8
	DefaultCacheSize   = 32768
)

// NewClassifyCache returns a cache with the given shard count (rounded up
// to a power of two) and total entry budget per level. Zero or negative
// arguments select the defaults.
func NewClassifyCache(shards, entriesPerLevel int) *ClassifyCache {
	if shards <= 0 {
		shards = DefaultCacheShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	shards = n
	if entriesPerLevel <= 0 {
		entriesPerLevel = DefaultCacheSize
	}
	per := (entriesPerLevel + shards - 1) / shards
	c := &ClassifyCache{
		raw:    make([]cacheShard, shards),
		masked: make([]cacheShard, shards),
		mask:   uint64(shards - 1),
	}
	for i := range c.raw {
		c.raw[i].cap = per
		c.raw[i].seen = seen.New(per)
		c.masked[i].cap = per
	}
	return c
}

// LookupRaw returns the cached label for an exact message text.
func (c *ClassifyCache) LookupRaw(msg string) (int, bool) {
	return c.raw[hashString(msg)&c.mask].get(msg)
}

// StoreRaw caches the label for an exact message text.
func (c *ClassifyCache) StoreRaw(msg string, label int) {
	if c.raw[hashString(msg)&c.mask].put(msg, label) {
		c.rawEvictions.Inc()
	}
}

// promoteRaw caches the label for a text whose template level 2 answered,
// if the text was offered before; otherwise it remembers the text's hash h
// (hashString(msg)) for its next sight.
func (c *ClassifyCache) promoteRaw(h uint64, msg string, label int) {
	s := &c.raw[h&c.mask]
	s.mu.Lock()
	evicted := s.seen.Again(h) && s.putLocked(msg, label)
	s.mu.Unlock()
	if evicted {
		c.rawEvictions.Inc()
	}
}

// LookupMasked returns the cached label for a masked-token-stream key
// (see AppendMaskedKey). The []byte key is looked up without allocating.
func (c *ClassifyCache) LookupMasked(key []byte) (int, bool) {
	return c.masked[hashBytes(key)&c.mask].getBytes(key)
}

// StoreMasked caches the label for a masked-token-stream key, copying it.
func (c *ClassifyCache) StoreMasked(key []byte, label int) {
	if c.masked[hashBytes(key)&c.mask].putBytes(key, label) {
		c.maskedEvictions.Inc()
	}
}

// Len returns the live entry count across both levels (for tests).
func (c *ClassifyCache) Len() int {
	raw, masked := c.Entries()
	return raw + masked
}

// Entries returns the live entry count of each level.
func (c *ClassifyCache) Entries() (raw, masked int) {
	for i := range c.raw {
		raw += c.raw[i].len()
		masked += c.masked[i].len()
	}
	return raw, masked
}

// cacheShard is one lock's worth of LRU state: a map from key to an
// intrusively linked entry, most recently used at the head. A raw shard
// also holds seen, the hashes of texts offered once, in a table of as many
// slots as the shard has entries.
type cacheShard struct {
	mu         sync.Mutex
	cap        int
	m          map[string]*cacheEntry
	head, tail *cacheEntry
	seen       seen.Set
}

type cacheEntry struct {
	key        string
	label      int
	prev, next *cacheEntry
}

func (s *cacheShard) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

func (s *cacheShard) get(key string) (int, bool) {
	s.mu.Lock()
	e, ok := s.m[key]
	if !ok {
		s.mu.Unlock()
		return 0, false
	}
	s.moveToFront(e)
	label := e.label
	s.mu.Unlock()
	return label, true
}

// getBytes is get for a []byte key; the map index expression converts
// without allocating.
func (s *cacheShard) getBytes(key []byte) (int, bool) {
	s.mu.Lock()
	e, ok := s.m[string(key)]
	if !ok {
		s.mu.Unlock()
		return 0, false
	}
	s.moveToFront(e)
	label := e.label
	s.mu.Unlock()
	return label, true
}

// put inserts or refreshes key -> label and reports whether an entry was
// evicted to make room.
func (s *cacheShard) put(key string, label int) bool {
	s.mu.Lock()
	evicted := s.putLocked(key, label)
	s.mu.Unlock()
	return evicted
}

// putBytes is put for a []byte key, converting to string only when an
// insert actually happens.
func (s *cacheShard) putBytes(key []byte, label int) bool {
	s.mu.Lock()
	if e, ok := s.m[string(key)]; ok {
		e.label = label
		s.moveToFront(e)
		s.mu.Unlock()
		return false
	}
	evicted := s.putLocked(string(key), label)
	s.mu.Unlock()
	return evicted
}

func (s *cacheShard) putLocked(key string, label int) bool {
	if s.m == nil {
		s.m = make(map[string]*cacheEntry, 64)
	}
	if e, ok := s.m[key]; ok {
		e.label = label
		s.moveToFront(e)
		return false
	}
	evicted := false
	if len(s.m) >= s.cap && s.tail != nil {
		lru := s.tail
		s.unlink(lru)
		delete(s.m, lru.key)
		evicted = true
	}
	// The raw level is keyed on message Content, which may be a view of a
	// pooled syslog slab that gets re-parsed once the record is released.
	// Copy the key only on a true insert — the hit/refresh paths above
	// keep the map's existing (already owned) key, so the steady state
	// stays allocation-free.
	k := strings.Clone(key)
	e := &cacheEntry{key: k, label: label}
	s.m[k] = e
	s.pushFront(e)
	return evicted
}

func (s *cacheShard) moveToFront(e *cacheEntry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

func (s *cacheShard) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *cacheShard) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// hashString is FNV-1a 64, inlined so shard selection never allocates.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func hashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// ClassifyScratch carries the per-worker reusable buffers for the
// zero-allocation classify path: preprocessing scratch (token slice +
// intern table), TF-IDF transform scratch, and the masked-key buffer.
// The zero value is ready to use; a scratch must not be shared between
// goroutines or between differently configured classifiers.
type ClassifyScratch struct {
	prep textproc.Scratch
	tf   tfidf.TransformScratch
	key  []byte
}

// CacheOutcome reports which cache level, if any, answered a
// PredictCached call.
type CacheOutcome int

const (
	// CacheMiss: the model ran (also the outcome when no cache is set).
	CacheMiss CacheOutcome = iota
	// CacheHitRaw: answered by the exact-message level; zero allocations.
	CacheHitRaw
	// CacheHitMasked: answered by the masked-token-stream level after
	// tokenization; vectorize and predict were skipped.
	CacheHitMasked
)

// PredictCached classifies text and returns the predicted label index
// (into tc.Labels) plus the cache outcome. c may be nil, in which case
// the call still runs the zero-allocation scratch path but never caches.
// Safe for concurrent use with per-goroutine scratches after Train.
func (tc *TextClassifier) PredictCached(text string, c *ClassifyCache, sc *ClassifyScratch) (int, CacheOutcome) {
	var h uint64
	if c != nil {
		h = hashString(text)
		if label, ok := c.raw[h&c.mask].get(text); ok {
			return label, CacheHitRaw
		}
	}
	tokens := tc.Prep.ProcessInto(text, &sc.prep)
	if c != nil {
		sc.key = AppendMaskedKey(sc.key[:0], tokens)
		if label, ok := c.LookupMasked(sc.key); ok {
			// On the text's second sight, promote it into level 1 so the
			// repeats to come are zero-allocation hits.
			c.promoteRaw(h, text, label)
			return label, CacheHitMasked
		}
	}
	label := tc.Model.Predict(tc.Vectorizer.TransformInto(tokens, &sc.tf))
	if c != nil {
		c.StoreMasked(sc.key, label)
		if c.raw[h&c.mask].put(text, label) {
			c.rawEvictions.Inc()
		}
	}
	return label, CacheMiss
}

// AppendMaskedKey joins the processed token stream into dst with 0x1F
// (unit separator — never part of a token, since the tokenizer splits on
// non-alphanumerics) as the level-2 cache key.
func AppendMaskedKey(dst []byte, tokens []string) []byte {
	for i, t := range tokens {
		if i > 0 {
			dst = append(dst, 0x1f)
		}
		dst = append(dst, t...)
	}
	return dst
}
