package trace

import "github.com/haechi-qos/haechi/internal/sim"

// ring is a bounded FIFO keeping the most recent len(buf) items pushed:
// the one ring behind both the span ring and the protocol-event ring. A
// zero-length ring keeps nothing and counts every push as dropped.
type ring[T any] struct {
	buf   []T
	next  int    // slot the next push overwrites
	total uint64 // items ever pushed, evicted ones included
}

func newRing[T any](capacity int) ring[T] { return ring[T]{buf: make([]T, capacity)} }

func (r *ring[T]) push(v T) {
	r.total++
	if len(r.buf) == 0 {
		return
	}
	r.buf[r.next] = v
	if r.next++; r.next == len(r.buf) {
		r.next = 0
	}
}

// retained is the number of items currently held.
func (r *ring[T]) retained() int {
	if r.total < uint64(len(r.buf)) {
		return int(r.total)
	}
	return len(r.buf)
}

// dropped is the number of pushed items evicted (or never kept).
func (r *ring[T]) dropped() uint64 { return r.total - uint64(r.retained()) }

// items returns a copy of the retained items, oldest first.
func (r *ring[T]) items() []T {
	out := make([]T, 0, r.retained())
	if r.retained() == len(r.buf) { // full: the oldest item sits at next
		out = append(out, r.buf[r.next:]...)
	}
	return append(out, r.buf[:r.next]...)
}

// mergeRings k-way merges per-shard rings into one read-only ring whose
// items are in (key, shard) order — each input must already be
// nondecreasing in key, and a tie goes to the lower shard index — and
// whose push count is the inputs' sum, so dropped() sums too.
func mergeRings[T any](rs []*ring[T], key func(*T) sim.Time) ring[T] {
	items := make([][]T, len(rs))
	var m ring[T]
	n := 0
	for s, r := range rs {
		items[s] = r.items()
		n += len(items[s])
		m.total += r.total
	}
	m.buf = make([]T, 0, n)
	idx := make([]int, len(rs))
	for len(m.buf) < n {
		best := -1
		for s := range items {
			if idx[s] < len(items[s]) && (best < 0 || key(&items[s][idx[s]]) < key(&items[best][idx[best]])) {
				best = s
			}
		}
		m.buf = append(m.buf, items[best][idx[best]])
		idx[best]++
	}
	return m
}
