package trace

import (
	"fmt"
	"sort"

	"github.com/haechi-qos/haechi/internal/metrics"
	"github.com/haechi-qos/haechi/internal/sim"
)

// StageStats aggregates per-stage latency histograms for every data
// span posted by one initiator. Unlike the span ring, which keeps only
// the most recent spans for export, the histograms cover every finished
// span — the per-stage breakdown is exact regardless of ring capacity.
type StageStats struct {
	Actor string

	CreditWait    metrics.Histogram
	InitNIC       metrics.Histogram
	Wire          metrics.Histogram
	TargetQueue   metrics.Histogram
	TargetService metrics.Histogram
	Delivery      metrics.Histogram
	Total         metrics.Histogram
}

// Histograms returns the stage histograms in StageNames order.
func (s *StageStats) Histograms() []*metrics.Histogram {
	return []*metrics.Histogram{
		&s.CreditWait,
		&s.InitNIC,
		&s.Wire,
		&s.TargetQueue,
		&s.TargetService,
		&s.Delivery,
		&s.Total,
	}
}

func (s *StageStats) record(sp *Span) {
	hs := s.Histograms()
	for i, d := range sp.StageDurations() {
		if d >= 0 {
			hs[i].Record(d)
		}
	}
}

// FlightRecorder holds one shard's traces in two bounded rings: the
// most recent finished spans and the most recent protocol events (see
// Event). Every finished data span also folds into per-initiator stage
// histograms. All methods are nil-safe so instrumented code needs no
// recorder checks at call sites, and nothing here ever touches the
// kernel's event queue: a run with a recorder attached executes the
// exact same event sequence as a run without one.
type FlightRecorder struct {
	spans   ring[Span]
	events  ring[Event]
	nextID  uint64
	started uint64
	stats   map[string]*StageStats

	// shard/idBase identify a per-shard recorder: span IDs are offset by
	// idBase so they stay unique after merging, and every span is stamped
	// with the shard it began on. Both zero on the unsharded path.
	shard  int
	idBase uint64
	// shards > 1 marks a recorder produced by MergeFlightRecorders; the
	// Chrome exporter switches to one process track per shard.
	shards int
}

// NewFlightRecorder creates a recorder keeping the last spans finished
// spans and the last events protocol events. Either ring may be empty
// (capacity 0), not both.
func NewFlightRecorder(spans, events int) (*FlightRecorder, error) {
	if spans < 0 || events < 0 || spans+events == 0 {
		return nil, fmt.Errorf("trace: flight recorder capacities must be non-negative and not both zero, got spans=%d events=%d", spans, events)
	}
	return &FlightRecorder{
		spans:  newRing[Span](spans),
		events: newRing[Event](events),
		stats:  make(map[string]*StageStats),
	}, nil
}

// NewShardFlightRecorder creates shard s's recorder in a sharded run.
// Each shard's recorder is touched only by code running on that shard's
// kernel — single-writer by construction, no locks — and span IDs get a
// per-shard base (shard<<56) so they remain unique after the merge.
// Shard 0's IDs match the unsharded numbering exactly.
func NewShardFlightRecorder(spans, events, s int) (*FlightRecorder, error) {
	if s < 0 {
		return nil, fmt.Errorf("trace: shard index must be non-negative, got %d", s)
	}
	fr, err := NewFlightRecorder(spans, events)
	if err != nil {
		return nil, err
	}
	fr.shard = s
	fr.idBase = uint64(s) << 56
	return fr, nil
}

// Begin starts a span for a verb posted at virtual time at. It returns
// nil on a nil recorder, so instrumentation sites guard with a single
// `if sp != nil` per stamp.
func (f *FlightRecorder) Begin(op Op, control bool, initiator, target string, qp int, at sim.Time) *Span {
	if f == nil {
		return nil
	}
	f.nextID++
	f.started++
	return &Span{
		ID:        f.idBase + f.nextID,
		Shard:     f.shard,
		Op:        op,
		Control:   control,
		Initiator: initiator,
		Target:    target,
		QP:        qp,
		Posted:    at,
		Credit:    Unset,
		InitDone:  Unset,
		Arrived:   Unset,
		Service:   Unset,
		Served:    Unset,
		Done:      Unset,
	}
}

// Finish records a completed span: it is copied into the ring and, for
// data spans, its stage durations feed the initiator's histograms.
func (f *FlightRecorder) Finish(sp *Span) {
	if f == nil || sp == nil {
		return
	}
	f.spans.push(*sp)
	if !sp.Control {
		st := f.stats[sp.Initiator]
		if st == nil {
			st = &StageStats{Actor: sp.Initiator}
			f.stats[sp.Initiator] = st
		}
		st.record(sp)
	}
}

// Started returns the number of spans begun.
func (f *FlightRecorder) Started() uint64 {
	if f == nil {
		return 0
	}
	return f.started
}

// Finished returns the number of spans finished (spans still in flight
// when the simulation ends are never finished and stay out of the
// ring).
func (f *FlightRecorder) Finished() uint64 {
	if f == nil {
		return 0
	}
	return f.spans.total
}

// Dropped returns the number of finished spans evicted from the ring
// (finished minus retained). Histograms still cover evicted spans; only
// the per-span export window loses them.
func (f *FlightRecorder) Dropped() uint64 {
	if f == nil {
		return 0
	}
	return f.spans.dropped()
}

// Shard returns the shard index this recorder records for (0 on the
// unsharded path).
func (f *FlightRecorder) Shard() int {
	if f == nil {
		return 0
	}
	return f.shard
}

// Sharded reports whether this recorder was produced by merging more
// than one per-shard recorder.
func (f *FlightRecorder) Sharded() bool { return f != nil && f.shards > 1 }

// ShardCount returns the number of per-shard recorders merged into this
// one (1 for a plain recorder).
func (f *FlightRecorder) ShardCount() int {
	if f == nil || f.shards == 0 {
		return 1
	}
	return f.shards
}

// Capacity returns the span ring size.
func (f *FlightRecorder) Capacity() int {
	if f == nil {
		return 0
	}
	return len(f.spans.buf)
}

// Spans returns the retained spans in finish order, oldest first.
func (f *FlightRecorder) Spans() []Span {
	if f == nil {
		return nil
	}
	return f.spans.items()
}

// merge folds another actor's stage statistics into s.
func (s *StageStats) merge(o *StageStats) {
	hs := s.Histograms()
	for i, h := range o.Histograms() {
		hs[i].Merge(h)
	}
}

// MergeFlightRecorders combines per-shard recorders into one read-only
// recorder, deterministically and independent of the worker count that
// drove the shards:
//
//   - retained spans are k-way merged in (End, shard) order and retained
//     protocol events in (At, shard) order — both keys are
//     nondecreasing within a shard, because Finish runs at the span's
//     final stamp and Event at the kernel's current time, so preserving
//     each shard's order and breaking cross-shard ties by shard index
//     yields a total order;
//   - per-actor stage histograms merge via Histogram.Merge (an actor's
//     spans may finish on different shards: delivery finishes on the
//     initiator's recorder, serve-only completions on the target's);
//   - started/finished and dropped counters sum across shards.
//
// Each shard keeps its own last N spans and events, so the merged
// window may reach further back on a quiet shard than on a busy one.
// The result must not receive further Begin/Finish/Event calls; it
// exists for export (Spans, Events, Stages, Chrome trace). A single
// recorder is returned unchanged.
func MergeFlightRecorders(frs ...*FlightRecorder) *FlightRecorder {
	if len(frs) == 1 {
		return frs[0]
	}
	m := &FlightRecorder{
		stats:  make(map[string]*StageStats),
		shards: len(frs),
	}
	spans := make([]*ring[Span], len(frs))
	events := make([]*ring[Event], len(frs))
	for i, f := range frs {
		spans[i], events[i] = &f.spans, &f.events
		m.started += f.started
	}
	m.spans = mergeRings(spans, func(sp *Span) sim.Time { return sp.End() })
	m.events = mergeRings(events, func(ev *Event) sim.Time { return ev.At })
	for _, f := range frs {
		for _, st := range f.Stages() { // sorted by actor: deterministic
			dst := m.stats[st.Actor]
			if dst == nil {
				dst = &StageStats{Actor: st.Actor}
				m.stats[st.Actor] = dst
			}
			dst.merge(st)
		}
	}
	return m
}

// Stages returns the per-initiator stage statistics sorted by actor
// name, for deterministic iteration and rendering.
func (f *FlightRecorder) Stages() []*StageStats {
	if f == nil {
		return nil
	}
	actors := make([]string, 0, len(f.stats))
	for a := range f.stats {
		actors = append(actors, a)
	}
	sort.Strings(actors)
	out := make([]*StageStats, len(actors))
	for i, a := range actors {
		out[i] = f.stats[a]
	}
	return out
}
