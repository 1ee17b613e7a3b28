// Package eventq provides the deterministic min-heap the discrete-event
// simulator core schedules on. Entries are keyed by (cycle, insertion
// sequence): the earliest cycle pops first, and entries scheduled for the
// same cycle pop in the order they were pushed. That tie-break is load-
// bearing — the simulator's byte-identity guarantee against its
// cycle-by-cycle reference loop requires same-cycle DRAM completions to fire in
// submission order, because each firing advances the fault model's PRNG.
package eventq

// Queue is a deterministic min-heap of values keyed by a cycle number.
// The zero value is an empty queue ready for use. Not safe for concurrent
// use (the simulator is single-threaded per run).
type Queue[T any] struct {
	items []entry[T]
	seq   uint64
}

type entry[T any] struct {
	at  int64
	seq uint64
	val T
}

// Len returns the number of queued entries.
func (q *Queue[T]) Len() int { return len(q.items) }

// Push schedules v at cycle at. Entries pushed at the same cycle pop in
// push order.
func (q *Queue[T]) Push(at int64, v T) {
	q.items = append(q.items, entry[T]{at: at, seq: q.seq, val: v})
	q.seq++
	q.up(len(q.items) - 1)
}

// PeekAt returns the earliest scheduled cycle, or false when empty.
func (q *Queue[T]) PeekAt() (int64, bool) {
	if len(q.items) == 0 {
		return 0, false
	}
	return q.items[0].at, true
}

// Pop removes and returns the earliest entry (ties in push order).
func (q *Queue[T]) Pop() (T, int64) {
	top := q.items[0]
	n := len(q.items) - 1
	q.items[0] = q.items[n]
	var zero entry[T]
	q.items[n] = zero
	q.items = q.items[:n]
	if n > 0 {
		q.down(0)
	}
	return top.val, top.at
}

// Filter visits every entry in push order and keeps those for which keep
// returns true, preserving their keys. Used for fault-time surgery (a
// killed DRAM channel drops its in-flight completions); visiting in push
// order matches the former slice iteration so lost-work callbacks
// fire in the same order.
func (q *Queue[T]) Filter(keep func(v T) bool) {
	ordered := q.ordered()
	q.items = q.items[:0]
	for _, e := range ordered {
		if keep(e.val) {
			q.items = append(q.items, e)
		}
	}
	q.init()
}

// InOrder visits every entry in (cycle, push-order) priority order without
// mutating the queue — the deterministic serialization order checkpoints
// use.
func (q *Queue[T]) InOrder(visit func(at int64, v T)) {
	for _, e := range q.sorted() {
		visit(e.at, e.val)
	}
}

// ordered returns a copy of the entries sorted by push order.
func (q *Queue[T]) ordered() []entry[T] {
	out := append([]entry[T](nil), q.items...)
	insertionSortBy(out, func(a, b entry[T]) bool { return a.seq < b.seq })
	return out
}

// sorted returns a copy of the entries sorted by (at, seq).
func (q *Queue[T]) sorted() []entry[T] {
	out := append([]entry[T](nil), q.items...)
	insertionSortBy(out, func(a, b entry[T]) bool {
		if a.at != b.at {
			return a.at < b.at
		}
		return a.seq < b.seq
	})
	return out
}

// insertionSortBy keeps the package dependency-free; queues are small (the
// simulator bounds in-flight bursts per transfer) and Filter/InOrder run
// only at fault events and checkpoints, never in the hot loop.
func insertionSortBy[T any](s []T, less func(a, b T) bool) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && less(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func (q *Queue[T]) less(i, j int) bool {
	a, b := &q.items[i], &q.items[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *Queue[T]) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			return
		}
		q.items[i], q.items[p] = q.items[p], q.items[i]
		i = p
	}
}

func (q *Queue[T]) down(i int) {
	n := len(q.items)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && q.less(l, m) {
			m = l
		}
		if r < n && q.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		q.items[i], q.items[m] = q.items[m], q.items[i]
		i = m
	}
}

func (q *Queue[T]) init() {
	for i := len(q.items)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}
