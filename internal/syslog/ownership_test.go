package syslog

import (
	"testing"
	"time"
)

// TestMessageOwnershipStateMachine pins the pooled → leased → pooled
// lifecycle behind the zero-garbage ingest path: Lease hands a pool-owned
// message to the pipeline without copying, Recycle returns it once every
// retention point has copied what it keeps; a lease that is never
// recycled falls to the GC.
func TestMessageOwnershipStateMachine(t *testing.T) {
	m := getMessage()
	if !m.pooled || m.leased {
		t.Fatalf("fresh pool message: pooled=%v leased=%v, want pooled only", m.pooled, m.leased)
	}
	if !m.Transient() {
		t.Error("pool-owned message must be Transient")
	}

	if got := m.Lease(); got != m {
		t.Error("Lease must return its receiver for chaining")
	}
	if m.pooled || !m.leased {
		t.Fatalf("after Lease: pooled=%v leased=%v, want leased only", m.pooled, m.leased)
	}
	if !m.Transient() {
		t.Error("leased message must remain Transient")
	}

	// Leasing a non-pooled message is a no-op: the pipeline may pass a
	// heap message (spool replay, tests) through the same code path.
	heap := &Message{}
	heap.Lease()
	if heap.pooled || heap.leased || heap.Transient() {
		t.Error("Lease on a heap message must not mark it transient")
	}

	// Recycle is the release half: only a leased message goes back.
	Recycle(heap) // no-op, not leased
	Recycle(nil)  // nil-safe
	Recycle(m)
	if m.leased || !m.pooled {
		t.Fatalf("after Recycle: pooled=%v leased=%v, want pooled only", m.pooled, m.leased)
	}

	// Double release must be harmless: the first Recycle cleared leased,
	// so a second (buggy) call cannot put the message into the pool twice.
	Recycle(m)

	// Clone always yields an independent heap message.
	m3 := getMessage().Lease()
	m3.Hostname = "cn001"
	c := m3.Clone()
	if c.pooled || c.leased || c.Transient() {
		t.Error("Clone must not be transient")
	}
	Recycle(m3)
}

// TestRecycledMessageReparse proves the hazard Recycle exists to manage:
// re-parsing into a recycled message overwrites its materialization slab,
// so any undetached string view of the old contents changes underneath
// its holder. Consumers must copy before Recycle — this test documents
// the sharp edge the clone-at-retention points guard against.
func TestRecycledMessageReparse(t *testing.T) {
	m := getMessage()
	ref := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	if err := ParseBytes([]byte("<13>Aug  7 12:00:00 cn042 kernel: CPU 3 throttled"), ref, m); err != nil {
		t.Fatal(err)
	}
	if m.Hostname != "cn042" {
		t.Fatalf("parsed hostname = %q", m.Hostname)
	}
	aliased := m.Content // view of m's slab, NOT copied
	cloned := m.Clone()

	m.Lease()
	Recycle(m)
	m2 := getMessage()
	if m2 != m {
		t.Skip("pool returned a different message; cannot demonstrate reuse deterministically")
	}
	if err := ParseBytes([]byte("<13>Aug  7 12:00:01 gpu07 sshd: Accepted publickey for root from 10.0.0.9"), ref, m2); err != nil {
		t.Fatal(err)
	}

	// The clone is immune; the aliased view is not guaranteed anything.
	if cloned.Content != "CPU 3 throttled" || cloned.Hostname != "cn042" {
		t.Errorf("cloned message mutated by pool reuse: %q from %q", cloned.Content, cloned.Hostname)
	}
	_ = aliased // may or may not still read the old bytes; holding it past Recycle is the bug
}
