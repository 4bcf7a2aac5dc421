package trace

import (
	"strings"
	"testing"

	"github.com/haechi-qos/haechi/internal/sim"
)

// newEventRecorder returns a recorder with only a protocol-event ring.
func newEventRecorder(t *testing.T, capacity int) *FlightRecorder {
	t.Helper()
	r, err := NewFlightRecorder(0, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestEventRingValidation(t *testing.T) {
	if _, err := NewFlightRecorder(0, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewFlightRecorder(0, -5); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := NewFlightRecorder(4, -5); err == nil {
		t.Error("negative event capacity accepted beside a span ring")
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *FlightRecorder
	r.Event(Event{Kind: Claim}) // must not panic
	if r.EventsDropped() != 0 || r.Events() != nil || len(r.EventCounts()) != 0 {
		t.Error("nil recorder not empty")
	}
	if r.Summary() != "trace: empty" {
		t.Errorf("nil summary = %q", r.Summary())
	}
	if err := r.Dump(nil); err != nil {
		t.Errorf("nil dump errored: %v", err)
	}
}

func TestRecordAndOrder(t *testing.T) {
	r := newEventRecorder(t, 10)
	for i := 0; i < 5; i++ {
		r.Event(Event{At: sim.Time(i), Kind: Claim, A: int64(i)})
	}
	evs := r.Events()
	if len(evs) != 5 {
		t.Fatalf("len = %d", len(evs))
	}
	for i, ev := range evs {
		if ev.A != int64(i) {
			t.Errorf("event %d out of order: %v", i, ev)
		}
	}
	if r.EventsDropped() != 0 {
		t.Errorf("EventsDropped = %d", r.EventsDropped())
	}
}

func TestRingEviction(t *testing.T) {
	r := newEventRecorder(t, 4)
	for i := 0; i < 10; i++ {
		r.Event(Event{At: sim.Time(i), Kind: Probe, A: int64(i)})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d, want 4", len(evs))
	}
	// Oldest retained is 6.
	for i, ev := range evs {
		if ev.A != int64(6+i) {
			t.Errorf("event %d = %v, want A=%d", i, ev, 6+i)
		}
	}
	if r.EventsDropped() != 6 {
		t.Errorf("EventsDropped = %d, want 6", r.EventsDropped())
	}
}

// TestEventRingDisabled: a recorder built with spans only keeps no
// protocol events and counts each one as dropped.
func TestEventRingDisabled(t *testing.T) {
	r, err := NewFlightRecorder(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.Event(Event{Kind: Claim})
	if len(r.Events()) != 0 || r.EventsDropped() != 1 || r.Summary() != "trace: empty" {
		t.Errorf("events=%v dropped=%d summary=%q, want none kept, 1 dropped, empty",
			r.Events(), r.EventsDropped(), r.Summary())
	}
}

func TestEventCounts(t *testing.T) {
	r := newEventRecorder(t, 16)
	r.Event(Event{Kind: Claim})
	r.Event(Event{Kind: Yield})
	r.Event(Event{Kind: Claim})
	r.Event(Event{Kind: PoolCap})
	counts := r.EventCounts()
	if len(counts) != 3 || counts[Claim] != 2 || counts[Yield] != 1 || counts[PoolCap] != 1 {
		t.Errorf("EventCounts = %v", counts)
	}
}

func TestKindStrings(t *testing.T) {
	for k := PeriodStart; k <= FailureRecover; k++ {
		if strings.HasPrefix(k.String(), "Kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "Kind(200)" {
		t.Error("unknown kind format wrong")
	}
}

func TestDumpAndSummary(t *testing.T) {
	r := newEventRecorder(t, 8)
	if r.Summary() != "trace: empty" {
		t.Errorf("empty summary = %q", r.Summary())
	}
	r.Event(Event{At: sim.Microsecond, Kind: Claim, Actor: "engine-1", A: 100, B: 50})
	r.Event(Event{At: 2 * sim.Microsecond, Kind: PeriodStart, Actor: "monitor", A: 1, B: 15700})
	var b strings.Builder
	if err := r.Dump(&b); err != nil {
		t.Fatal(err)
	}
	// The dump format is part of the haechikv CLI output: pin it.
	want := "1.000µs      claim           engine-1   A=100 B=50\n" +
		"2.000µs      period-start    monitor    A=1 B=15700\n"
	if b.String() != want {
		t.Errorf("dump = %q, want %q", b.String(), want)
	}
	if sum := r.Summary(); sum != "trace: period-start=1 claim=1" {
		t.Errorf("summary = %q", sum)
	}
}

// TestMergeEvents pins the protocol-event half of MergeFlightRecorders:
// events from two shards interleave in (At, shard) order, a tie goes
// to the lower shard, and the dropped counters sum.
func TestMergeEvents(t *testing.T) {
	newShard := func(s int) *FlightRecorder {
		fr, err := NewShardFlightRecorder(0, 3, s)
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}
	fr0, fr1 := newShard(0), newShard(1)
	// Shard 0 records 4 events into a ring of 3: the one at At=5 is
	// evicted.
	for _, at := range []sim.Time{5, 10, 20, 30} {
		fr0.Event(Event{At: at, Kind: TokenPush, Actor: "monitor", A: int64(at)})
	}
	for _, at := range []sim.Time{10, 15, 30} {
		fr1.Event(Event{At: at, Kind: Claim, Actor: "engine-1", A: int64(at)})
	}
	m := MergeFlightRecorders(fr0, fr1)
	want := []struct {
		at    sim.Time
		actor string
	}{{10, "monitor"}, {10, "engine-1"}, {15, "engine-1"}, {20, "monitor"}, {30, "monitor"}, {30, "engine-1"}}
	evs := m.Events()
	if len(evs) != len(want) {
		t.Fatalf("merged %d events, want %d: %v", len(evs), len(want), evs)
	}
	for i, w := range want {
		if evs[i].At != w.at || evs[i].Actor != w.actor {
			t.Errorf("event %d = (%v, %s), want (%v, %s)", i, evs[i].At, evs[i].Actor, w.at, w.actor)
		}
	}
	if m.EventsDropped() != 1 {
		t.Errorf("merged EventsDropped = %d, want 1", m.EventsDropped())
	}
	if got := m.EventCounts(); got[TokenPush] != 3 || got[Claim] != 3 {
		t.Errorf("merged counts = %v", got)
	}
}
