package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hetsyslog/bench/stat"
	"hetsyslog/bench/workload"
	"hetsyslog/internal/collector"
)

const (
	// window bounds the closed-loop sender's un-acked records. The TCP
	// listener back-pressures, so bounded in-flight is the sustainable
	// rate: a faster system is sent more, a slower one less.
	window = 4096
	// chunkRecords is how many frames the closed loop writes per socket
	// write; they share one timestamp.
	chunkRecords = 256
	// tick is the open loop's schedule step.
	tick = 2 * time.Millisecond
	// stallTimeout fails a run whose pipeline stops acknowledging.
	stallTimeout = 10 * time.Second
)

// ackSink is the benchmark's point of observation, present on both the
// end-to-end and the traced run: it sits where the pipeline hands a batch
// to the service and, once the service's Write has returned — the moment
// the records are queryable — reads each record's sequence number and
// send time back out of the record itself. It adds one clock read per
// batch and no state the system can see.
type ackSink struct {
	inner  collector.Sink
	tr     *tracer
	offset time.Duration // wall clock -> the timeline the records are stamped on
	notify chan struct{}

	// acked is one past the highest sequence number seen flushed. One
	// connection and one flusher keep records in order, so every earlier
	// record has reached its final disposition too (flushed or filtered).
	acked     atomic.Uint64
	measuring atomic.Bool

	mu         sync.Mutex
	fresh      stat.Hist // send -> queryable, ns, measured window only
	source     int64     // records flushed that the sender sent
	emitted    int64     // records flushed that a stage injected
	outOfOrder int64     // sender records seen at or below an earlier one
}

func (a *ackSink) Write(ctx context.Context, batch []collector.Record) error {
	var span int32
	var start time.Time
	if a.tr != nil {
		start = time.Now()
		span = a.tr.beginWrite(batch, a.acked.Load(), start)
	}
	err := a.inner.Write(ctx, batch)
	now := time.Now()
	if a.tr != nil {
		a.tr.rec.Finish(span, now)
	}
	if err != nil {
		return err
	}
	measuring := a.measuring.Load()
	acked := a.acked.Load()
	a.mu.Lock()
	for _, r := range batch {
		seq, ok := workload.ParseSeq(r.Msg.MsgID)
		switch {
		case !ok:
			a.emitted++ // detector alerts carry no sequence number
		case seq < acked && r.Meta["repeated"] != "":
			a.emitted++ // a dedup summary re-emits its burst's first record
		case seq < acked:
			a.outOfOrder++
		default:
			acked = seq + 1
			a.source++
			if measuring {
				a.fresh.Add(now.Add(a.offset).Sub(r.Msg.Timestamp).Nanoseconds())
			}
		}
	}
	a.mu.Unlock()
	a.acked.Store(acked)
	select {
	case a.notify <- struct{}{}:
	default:
	}
	return nil
}

// sender writes generated frames to the system's TCP listener from one
// goroutine over one connection: closed loop (rate 0), or open loop on a
// fixed schedule of rate records per second.
type sender struct {
	gen  *workload.Generator
	conn net.Conn
	ack  *ackSink
	rate int

	measuring atomic.Bool
	late      stat.Hist // open loop: how long after its due time a tick was sent, ns
	buf       []byte
	stamp     []byte
}

func newSender(addr string, gen *workload.Generator, ack *ackSink, rate int) (*sender, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &sender{gen: gen, conn: conn, ack: ack, rate: rate}
	ack.acked.Store(gen.Seq())
	return s, nil
}

// write frames n records, stamped with the wall-clock time at moved onto
// the run's timeline, and writes them in one call.
func (s *sender) write(n int, at time.Time) error {
	s.stamp = workload.AppendStamp(s.stamp[:0], at.Add(s.ack.offset))
	s.buf = s.buf[:0]
	for i := 0; i < n; i++ {
		s.buf = s.gen.AppendFrame(s.buf, s.gen.Next(), s.stamp)
	}
	_, err := s.conn.Write(s.buf)
	return err
}

// run sends until ctx is cancelled.
func (s *sender) run(ctx context.Context) error {
	if s.rate > 0 {
		return s.runOpen(ctx)
	}
	return s.runClosed(ctx)
}

func (s *sender) runClosed(ctx context.Context) error {
	stall := time.NewTimer(stallTimeout)
	defer stall.Stop()
	for ctx.Err() == nil {
		if s.gen.Seq()-s.ack.acked.Load()+chunkRecords > window {
			stall.Reset(stallTimeout)
			select {
			case <-s.ack.notify:
			case <-ctx.Done():
			case <-stall.C:
				return fmt.Errorf("no record acknowledged for %v with %d in flight",
					stallTimeout, s.gen.Seq()-s.ack.acked.Load())
			}
			continue
		}
		// A closed loop has no schedule: a record is due when it is sent.
		if err := s.write(chunkRecords, time.Now()); err != nil {
			return err
		}
	}
	return nil
}

func (s *sender) runOpen(ctx context.Context) error {
	start := time.Now()
	var sentTotal int64
	for k := int64(1); ctx.Err() == nil; k++ {
		due := start.Add(time.Duration(k) * tick)
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil
			}
		}
		// Records carry their due time, not the time the generator got
		// round to them, so a stall is charged to every record it delays.
		want := int64(float64(s.rate) * (time.Duration(k) * tick).Seconds())
		if n := int(want - sentTotal); n > 0 {
			if s.measuring.Load() {
				s.late.Add(time.Since(due).Nanoseconds())
			}
			if err := s.write(n, due); err != nil {
				return err
			}
			sentTotal = want
		}
	}
	return nil
}

// drain sends the sentinel and waits until it has been flushed, which
// (one connection, one flusher) means every record before it was too.
func (s *sender) drain() error {
	stamp := workload.AppendStamp(nil, time.Now().Add(s.ack.offset))
	frame := s.gen.AppendFrame(nil, s.gen.Sentinel(), stamp)
	if _, err := s.conn.Write(frame); err != nil {
		return err
	}
	deadline := time.After(stallTimeout)
	for s.ack.acked.Load() < s.gen.Seq() {
		select {
		case <-s.ack.notify:
		case <-time.After(10 * time.Millisecond):
		case <-deadline:
			return fmt.Errorf("drain: %d records sent were never acknowledged",
				s.gen.Seq()-s.ack.acked.Load())
		}
	}
	return s.conn.Close()
}

// retention keeps the stores bounded the way tivan's -retention loop
// does — DeleteBefore then Compact — but triggered by size, since a
// benchmark minute holds as many records as a deployment's day: whenever
// the stores pass retentionCap documents it deletes the oldest half.
type retention struct {
	sys *system
	// marks records (time, documents ever stored by then): a poll now
	// sees every document stamped before now, so the mark whose count is
	// nearest half-way between deleted and stored is the time that splits
	// the live documents in two.
	marks   []mark
	deleted int64 // distinct documents deleted so far

	mu   sync.Mutex
	runs stat.Samples // ms per retention pass
}

type mark struct {
	at     time.Time
	stored int64
}

func newRetentionAt(sys *system) *retention {
	r := &retention{sys: sys}
	// The preload was spaced evenly up to the newest preloaded document.
	end := origin
	for k := 1; k <= 16; k++ {
		n := preloadDocs * k / 16
		r.marks = append(r.marks, mark{end.Add(-time.Duration(preloadDocs-n) * preloadSpacing), int64(n)})
	}
	return r
}

func (r *retention) run(ctx context.Context) {
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			live := int64(r.sys.docs())
			r.marks = append(r.marks, mark{now.Add(r.sys.offset), r.deleted + live})
			if live > retentionCap {
				r.pass(live)
			}
		}
	}
}

func (r *retention) pass(live int64) {
	target := r.deleted + live/2
	i := 0
	for i < len(r.marks)-1 && r.marks[i].stored < target {
		i++
	}
	cutoff := r.marks[i].at
	r.marks = r.marks[i:]
	start := time.Now()
	n := 0
	for _, st := range r.sys.stores {
		n += st.DeleteBefore(cutoff)
		st.Compact()
	}
	end := time.Now()
	r.deleted += int64(n / r.sys.replication())
	if r.sys.tr != nil {
		r.sys.tr.rec.Add(spanRetention, 0, int64(n), start, end)
	}
	r.mu.Lock()
	r.runs.Add(float64(end.Sub(start).Nanoseconds()) / 1e6)
	r.mu.Unlock()
}

// storedCopies returns how many document copies the stores should hold:
// everything written minus everything retention deleted.
func (r *retention) storedCopies(written int64) int64 {
	return (written - r.deleted) * int64(r.sys.replication())
}

// shapeSample is how many draws the traffic-shape check classifies.
const shapeSample = 60000

// checkShape classifies a sample of the workload's own traffic through a
// fresh cache and checks the cache outcome the workload is named for
// dominates; a workload that fails this is not measuring what its name
// says and the run is refused.
func checkShape(sys *system, sp spec, seed int64) (raw, masked, miss float64, err error) {
	g := workload.NewGenerator(sys.corpus, sp.shape, seed, 0)
	raw, masked, miss = cacheRatios(sys, g, shapeSample)
	var got, floor float64
	switch sp.shape {
	case workload.Exact:
		got, floor = raw, 0.9
	case workload.Templated:
		got, floor = masked, 0.8
	case workload.Novel:
		got, floor = miss, 0.9
	}
	if got < floor {
		err = fmt.Errorf("workload invalid: %v traffic gave raw-hit %.3f masked-hit %.3f miss %.3f, need %.2f of its own kind",
			sp.shape, raw, masked, miss, floor)
	}
	return raw, masked, miss, err
}
