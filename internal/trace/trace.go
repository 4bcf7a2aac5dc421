// Package trace is the simulator's one tracing system: a per-shard
// FlightRecorder keeps the most recent per-I/O spans and the most recent
// protocol events — token pushes and claims, yields and returns, pool
// caps, reports, capacity updates, throttling, and failure-detection
// transitions — in two bounded rings, and MergeFlightRecorders combines
// the shards' recorders deterministically. Recording is optional and
// nil-safe — components hold a *FlightRecorder that may be nil — and
// adds a single branch when disabled.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/haechi-qos/haechi/internal/sim"
)

// Kind classifies a protocol event.
type Kind uint8

// Event kinds. A and B in Event carry kind-specific values as noted.
const (
	// PeriodStart: a new QoS period at the monitor. A=period index,
	// B=token budget Omega.
	PeriodStart Kind = iota + 1
	// TokenPush: reservation tokens pushed to a client. A=client id,
	// B=R_i.
	TokenPush
	// ReportSignal: the monitor broadcast "begin reporting". A=period.
	ReportSignal
	// Report: a client wrote its report. A=residual, B=completed.
	Report
	// Claim: a client's FETCH_ADD claim returned. A=old pool value,
	// B=tokens granted.
	Claim
	// Probe: a zero-delta pool probe returned. A=old pool value.
	Probe
	// Yield: the X-counter decay reclaimed tokens at a client. A=tokens
	// yielded, B=tokens returned to the pool (0 in Basic mode).
	Yield
	// PoolCap: the monitor lowered the pool to the capacity bound.
	// A=previous value, B=bound written.
	PoolCap
	// CapacityUpdate: Algorithm 1 produced a new estimate. A=reported
	// usage U, B=Omega for the next period.
	CapacityUpdate
	// LimitThrottle: a client hit its per-period limit. A=limit.
	LimitThrottle
	// FailureSuspect / FailureRecover: failure-detection transitions.
	// A=client id.
	FailureSuspect
	FailureRecover
	// LocalViolation: Definition 2's runtime local-capacity condition
	// failed for a client mid-period — its residual reservation can no
	// longer be served at C_L in the time left. A=client id, B=shortfall.
	LocalViolation
)

// Kinds lists every declared event kind in declaration order. Summary
// and other by-kind renderings must not hardcode the range of declared
// kinds (a Kind added after the last constant would silently vanish);
// they either iterate observed kinds or use this list.
func Kinds() []Kind {
	return []Kind{
		PeriodStart, TokenPush, ReportSignal, Report, Claim, Probe,
		Yield, PoolCap, CapacityUpdate, LimitThrottle, FailureSuspect,
		FailureRecover, LocalViolation,
	}
}

// String names the kind.
func (k Kind) String() string {
	switch k {
	case PeriodStart:
		return "period-start"
	case TokenPush:
		return "token-push"
	case ReportSignal:
		return "report-signal"
	case Report:
		return "report"
	case Claim:
		return "claim"
	case Probe:
		return "probe"
	case Yield:
		return "yield"
	case PoolCap:
		return "pool-cap"
	case CapacityUpdate:
		return "capacity-update"
	case LimitThrottle:
		return "limit-throttle"
	case FailureSuspect:
		return "failure-suspect"
	case FailureRecover:
		return "failure-recover"
	case LocalViolation:
		return "local-violation"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one recorded protocol event.
type Event struct {
	At   sim.Time
	Kind Kind
	// Actor identifies the emitting component ("monitor", "engine-3").
	Actor string
	// A and B carry kind-specific values (see the Kind constants).
	A, B int64
}

// String formats the event for dumps.
func (e Event) String() string {
	return fmt.Sprintf("%-12v %-15s %-10s A=%d B=%d", e.At, e.Kind, e.Actor, e.A, e.B)
}

// Event records a protocol event in the event ring, evicting the oldest
// when full. Safe on a nil receiver, so the monitor and engines call it
// unguarded; a recorder built with no event ring counts it as dropped.
func (f *FlightRecorder) Event(ev Event) {
	if f == nil {
		return
	}
	f.events.push(ev)
}

// Events returns the retained protocol events, oldest first.
func (f *FlightRecorder) Events() []Event {
	if f == nil {
		return nil
	}
	return f.events.items()
}

// EventsDropped returns the number of protocol events evicted from the
// event ring (recorded minus retained).
func (f *FlightRecorder) EventsDropped() uint64 {
	if f == nil {
		return 0
	}
	return f.events.dropped()
}

// EventCounts tallies retained protocol events by kind.
func (f *FlightRecorder) EventCounts() map[Kind]int {
	out := make(map[Kind]int)
	for _, ev := range f.Events() {
		out[ev.Kind]++
	}
	return out
}

// Dump writes the retained protocol events to w, one per line.
func (f *FlightRecorder) Dump(w io.Writer) error {
	for _, ev := range f.Events() {
		if _, err := fmt.Fprintln(w, ev.String()); err != nil {
			return err
		}
	}
	return nil
}

// Summary renders per-kind protocol event counts on one line. It
// iterates the kinds actually observed, in sorted order, so events of
// kinds declared after LocalViolation (or not declared at all) still
// appear.
func (f *FlightRecorder) Summary() string {
	counts := f.EventCounts()
	if len(counts) == 0 {
		return "trace: empty"
	}
	kinds := make([]Kind, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	parts := make([]string, len(kinds))
	for i, k := range kinds {
		parts[i] = fmt.Sprintf("%s=%d", k, counts[k])
	}
	return "trace: " + strings.Join(parts, " ")
}
