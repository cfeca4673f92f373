package resilience

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Spool is a disk-backed spill queue: an append-only write-ahead log of
// opaque payload frames, stored as numbered segment files under one
// directory. The cluster router keeps one per store node: it appends a
// frame per batch share the node cannot take and replays frames
// oldest-first once the node recovers, so a node outage turns into
// spooled bytes instead of dropped records — the role Fluentd's file
// buffer plays in the paper's substrate (§4.2).
//
// On-disk format, per frame:
//
//	uint32 payload length (little-endian)
//	uint32 record count   (how many records the payload encodes)
//	uint32 CRC-32 (IEEE) of the count field and the payload
//	payload bytes
//
// Each Append is fsync'd before returning, so an acknowledged spill
// survives a crash. A frame whose length prefix runs past the end of the
// segment (torn final write) or whose CRC mismatches is detected on open
// and skipped along with the rest of its segment; frames before it replay
// intact, and the file is truncated to its valid prefix so on-disk size
// always matches the Bytes() accounting.
//
// Capacity is bounded by MaxBytes with oldest-segment eviction: when an
// append would exceed the bound, whole leading segments are deleted and
// their record counts reported back to the caller (the router counts
// them as evicted — the spool prefers losing the oldest evidence to
// refusing the newest). MaxBytes is a hard bound: a single frame that
// would not fit in an otherwise empty spool is rejected with
// ErrFrameTooLarge instead of overshooting.
//
// Replay position is tracked per-process: a fully replayed segment is
// deleted, a partially replayed one is re-replayed from its start after
// a crash (at-least-once delivery across restarts; exactly-once within
// one process).
//
// All methods are safe for concurrent use.
type Spool struct {
	dir      string
	maxBytes int64
	segBytes int64

	mu       sync.Mutex
	segments []*segment // oldest first; last is the active append target
	active   *os.File   // open handle for the last segment
	nextSeq  uint64
	bytes    int64 // total valid bytes across segments
	records  int64 // total spooled, not-yet-replayed records
	evicted  int64 // cumulative records lost to eviction
	skipped  int64 // cumulative records lost to torn/corrupt frames
	headFrm  int   // index of the next frame to replay in segments[0]
}

type segment struct {
	path   string
	seq    uint64
	bytes  int64 // valid (frame-covered) bytes
	frames []frameInfo
}

type frameInfo struct {
	off     int64
	length  uint32
	records uint32
}

const frameHeader = 12 // len + count + crc

// SpoolConfig parameterizes OpenSpool.
type SpoolConfig struct {
	// Dir is the spool directory, created if missing.
	Dir string
	// MaxBytes bounds total spool size; exceeding it evicts the oldest
	// segment(s). 0 means unbounded.
	MaxBytes int64
	// SegmentBytes rotates the active segment once it grows past this
	// size (default 4MiB, or MaxBytes/8 when that is smaller), so
	// eviction granularity stays a fraction of the bound.
	SegmentBytes int64
}

// OpenSpool opens (or creates) the spool at cfg.Dir, scanning existing
// segments so records spooled by a previous process are ready to replay.
func OpenSpool(cfg SpoolConfig) (*Spool, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("resilience: spool needs a directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	seg := cfg.SegmentBytes
	if seg <= 0 {
		seg = 4 << 20
		if cfg.MaxBytes > 0 && cfg.MaxBytes/8 < seg {
			seg = cfg.MaxBytes / 8
		}
		if seg < 4<<10 {
			seg = 4 << 10
		}
	}
	s := &Spool{dir: cfg.Dir, maxBytes: cfg.MaxBytes, segBytes: seg, nextSeq: 1}
	if err := s.scan(); err != nil {
		return nil, err
	}
	return s, nil
}

// scan indexes existing segment files, validating every frame and
// truncating torn tails.
func (s *Spool) scan() error {
	names, err := filepath.Glob(filepath.Join(s.dir, "seg-*.wal"))
	if err != nil {
		return err
	}
	sort.Strings(names)
	for _, path := range names {
		var seq uint64
		if _, err := fmt.Sscanf(filepath.Base(path), "seg-%016d.wal", &seq); err != nil {
			continue // not ours
		}
		seg, skippedRecs, fileSize, err := indexSegment(path, seq)
		if err != nil {
			return err
		}
		s.skipped += skippedRecs
		if len(seg.frames) == 0 {
			os.Remove(path) // nothing replayable in it
			continue
		}
		if seg.bytes < fileSize {
			// Drop the torn/corrupt tail from disk too, so file sizes
			// match the Bytes()/MaxBytes accounting and eviction frees
			// exactly what it claims to.
			if err := os.Truncate(path, seg.bytes); err != nil {
				return err
			}
		}
		s.segments = append(s.segments, seg)
		s.bytes += seg.bytes
		for _, f := range seg.frames {
			s.records += int64(f.records)
		}
		if seq >= s.nextSeq {
			s.nextSeq = seq + 1
		}
	}
	return nil
}

// indexSegment reads one segment file, returning the index of its valid
// frames, how many records sit in torn/corrupt frames past the valid
// prefix (best effort: a torn length field counts as 0 records), and the
// file's on-disk size so the caller can truncate the damaged tail.
func indexSegment(path string, seq uint64) (*segment, int64, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, 0, err
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, 0, 0, err
	}
	seg := &segment{path: path, seq: seq}
	var off int64
	var hdr [frameHeader]byte
	var skipped int64
	for off+frameHeader <= size {
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			break
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		count := binary.LittleEndian.Uint32(hdr[4:8])
		sum := binary.LittleEndian.Uint32(hdr[8:12])
		if off+frameHeader+int64(length) > size {
			// Torn final frame: the length prefix promises more bytes
			// than the file holds (crash mid-append).
			skipped += int64(count)
			break
		}
		payload := make([]byte, length)
		if _, err := f.ReadAt(payload, off+frameHeader); err != nil {
			skipped += int64(count)
			break
		}
		if frameCRC(hdr[4:8], payload) != sum {
			// Corrupt frame: skip it and everything after it in this
			// segment (the stream is not self-resynchronizing).
			skipped += int64(count)
			break
		}
		seg.frames = append(seg.frames, frameInfo{off: off, length: length, records: count})
		off += frameHeader + int64(length)
	}
	seg.bytes = off
	return seg, skipped, size, nil
}

// frameCRC covers the record-count field and the payload.
func frameCRC(countField, payload []byte) uint32 {
	h := crc32.NewIEEE()
	h.Write(countField)
	h.Write(payload)
	return h.Sum32()
}

// ErrFrameTooLarge reports an Append whose frame alone would exceed the
// spool's MaxBytes bound even with every older segment evicted. The
// caller should account the batch as dropped rather than blow the bound.
var ErrFrameTooLarge = errors.New("resilience: frame exceeds spool MaxBytes")

// Append spills one encoded batch of records records. It returns how many
// previously spooled records were evicted to stay under MaxBytes (0 when
// nothing was evicted). The frame is fsync'd before Append returns. A
// frame larger than MaxBytes on its own is rejected with ErrFrameTooLarge
// before anything is evicted.
func (s *Spool) Append(payload []byte, records int) (evicted int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	need := int64(frameHeader + len(payload))
	if s.maxBytes > 0 && need > s.maxBytes {
		return 0, ErrFrameTooLarge
	}
	if s.maxBytes > 0 {
		for s.bytes+need > s.maxBytes && len(s.segments) > 1 {
			evicted += s.evictOldestLocked()
		}
		// Still over with one segment left: rotate so the old one
		// becomes evictable, unless it's already empty of frames.
		if s.bytes+need > s.maxBytes && len(s.segments) == 1 && len(s.segments[0].frames) > 0 {
			if err := s.rotateLocked(); err != nil {
				return evicted, err
			}
			evicted += s.evictOldestLocked()
		}
	}
	if err := s.ensureActiveLocked(need); err != nil {
		return evicted, err
	}
	seg := s.segments[len(s.segments)-1]
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(records))
	binary.LittleEndian.PutUint32(hdr[8:12], frameCRC(hdr[4:8], payload))
	if _, err := s.active.Write(hdr[:]); err != nil {
		return evicted, err
	}
	if _, err := s.active.Write(payload); err != nil {
		return evicted, err
	}
	if err := s.active.Sync(); err != nil {
		return evicted, err
	}
	seg.frames = append(seg.frames, frameInfo{off: seg.bytes, length: uint32(len(payload)), records: uint32(records)})
	seg.bytes += need
	s.bytes += need
	s.records += int64(records)
	return evicted, nil
}

// ensureActiveLocked opens or rotates the active segment so the next
// frame of the given size lands in a segment under SegmentBytes.
func (s *Spool) ensureActiveLocked(need int64) error {
	if len(s.segments) > 0 && s.active != nil {
		seg := s.segments[len(s.segments)-1]
		if seg.bytes+need <= s.segBytes || len(seg.frames) == 0 {
			return nil
		}
	}
	return s.rotateLocked()
}

// rotateLocked starts a new active segment.
func (s *Spool) rotateLocked() error {
	if s.active != nil {
		s.active.Close()
		s.active = nil
	}
	path := filepath.Join(s.dir, fmt.Sprintf("seg-%016d.wal", s.nextSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.segments = append(s.segments, &segment{path: path, seq: s.nextSeq})
	s.nextSeq++
	s.active = f
	return nil
}

// evictOldestLocked deletes the oldest segment, returning how many
// not-yet-replayed records it held. Caller holds s.mu and has ensured
// the oldest segment is not the active one (or accepts losing it).
func (s *Spool) evictOldestLocked() int64 {
	seg := s.segments[0]
	var recs int64
	for _, f := range seg.frames[s.headFrameIndexLocked(seg):] {
		recs += int64(f.records)
	}
	if s.active != nil && len(s.segments) == 1 {
		s.active.Close()
		s.active = nil
	}
	os.Remove(seg.path)
	s.segments = s.segments[1:]
	s.bytes -= seg.bytes
	s.records -= recs
	s.evicted += recs
	s.headFrm = 0
	return recs
}

// headFrameIndexLocked returns the replay cursor within seg if seg is the
// head segment, else 0.
func (s *Spool) headFrameIndexLocked(seg *segment) int {
	if len(s.segments) > 0 && s.segments[0] == seg {
		return s.headFrm
	}
	return 0
}

// FrameToken identifies the exact frame a Peek returned: the segment's
// sequence number (never reused) plus the frame index within it. Pop
// takes it back so a frame evicted between Peek and Pop — eviction can
// run concurrently with a replay's in-flight sink write — is never
// confused with whatever frame sits at the head afterwards.
type FrameToken struct {
	seq uint64
	frm int
}

// Peek returns the oldest unreplayed frame's payload, record count, and a
// token identifying that frame for Pop. ok is false when the spool is
// empty.
func (s *Spool) Peek() (payload []byte, records int, tok FrameToken, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.segments) > 0 {
		seg := s.segments[0]
		if s.headFrm < len(seg.frames) {
			fr := seg.frames[s.headFrm]
			f, err := os.Open(seg.path)
			if err != nil {
				return nil, 0, FrameToken{}, false, err
			}
			payload = make([]byte, fr.length)
			_, err = f.ReadAt(payload, fr.off+frameHeader)
			f.Close()
			if err != nil {
				return nil, 0, FrameToken{}, false, err
			}
			return payload, int(fr.records), FrameToken{seq: seg.seq, frm: s.headFrm}, true, nil
		}
		s.dropHeadSegmentLocked()
	}
	return nil, 0, FrameToken{}, false, nil
}

// Pop consumes the frame tok identifies (after a successful replay). It
// reports whether the frame was still the head and got consumed: false
// means eviction removed it in the meantime — the caller has already been
// billed for it through Append's evicted count and must not account the
// pop again.
func (s *Spool) Pop(tok FrameToken) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.segments) == 0 {
		return false
	}
	seg := s.segments[0]
	if seg.seq != tok.seq || s.headFrm != tok.frm || s.headFrm >= len(seg.frames) {
		return false
	}
	s.records -= int64(seg.frames[s.headFrm].records)
	s.headFrm++
	if s.headFrm >= len(seg.frames) {
		s.dropHeadSegmentLocked()
	}
	return true
}

// dropHeadSegmentLocked removes a fully replayed head segment.
func (s *Spool) dropHeadSegmentLocked() {
	seg := s.segments[0]
	if s.active != nil && len(s.segments) == 1 {
		s.active.Close()
		s.active = nil
	}
	os.Remove(seg.path)
	s.bytes -= seg.bytes
	s.segments = s.segments[1:]
	s.headFrm = 0
}

// Records returns how many spooled records await replay.
func (s *Spool) Records() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records
}

// Bytes returns the total on-disk bytes of valid frames.
func (s *Spool) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Segments returns the live segment count.
func (s *Spool) Segments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.segments)
}

// Evicted returns the cumulative records lost to oldest-segment eviction.
func (s *Spool) Evicted() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// Skipped returns the cumulative records detected as torn/corrupt at open
// time and skipped.
func (s *Spool) Skipped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.skipped
}

// Close releases the active segment handle. Spooled data stays on disk
// for the next OpenSpool.
func (s *Spool) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active != nil {
		err := s.active.Close()
		s.active = nil
		return err
	}
	return nil
}
