package sim

// Line is a delay line: a FIFO of callbacks due at strictly increasing
// instants, such as the deliveries of a serialized link, whose packets
// arrive in the order they were sent. The kernel queues only the line's
// first two items, and each firing queues the next one, so a link with
// hundreds of packets in flight keeps two entries in the heap, not hundreds.
//
// Line.At fires fn exactly where Simulator.At would: each push reserves the
// sequence number At would take, and the item enters the queue under that
// (at, seq) before anything could fire after it. Two queued items are what
// keep Lookahead exact without it knowing about lines: an item held back
// falls after the second, so it is never the first instant, never ties it,
// and never precedes the next live instant after it.
type Line struct {
	sim   *Simulator
	items []lineItem // ring buffer; its length is zero or a power of two
	head  int        // ring index of the oldest item
	n     int        // items held, the two queued ones included
	pop   func()     // fire, bound once so queueing an item allocates nothing
}

// lineItem is one pushed callback and the (at, seq) its push reserved.
type lineItem struct {
	at  Time
	seq uint64
	fn  func()
}

// NewLine creates an empty delay line on s.
func NewLine(s *Simulator) *Line {
	l := &Line{sim: s}
	l.pop = l.fire
	return l
}

// At schedules fn to run at absolute time t, at the (at, seq) position a
// call of s.At(t, fn) in its place would take. An instant no later than the
// line's last item's is handed to s.At itself, so the line stays strictly
// increasing. Scheduling in the past panics, as At does.
func (l *Line) At(t Time, fn func()) {
	if fn == nil {
		panic("sim: nil event function")
	}
	if l.n > 0 && t <= l.items[(l.head+l.n-1)&(len(l.items)-1)].at {
		l.sim.At(t, fn)
		return
	}
	s := l.sim
	seq := s.seq
	s.seq++
	if l.n < 2 {
		s.queueAt(t, seq, l.pop)
	}
	if l.n == len(l.items) {
		l.grow()
	}
	l.items[(l.head+l.n)&(len(l.items)-1)] = lineItem{at: t, seq: seq, fn: fn}
	l.n++
}

// grow doubles the ring, unrolling it so the head sits at index 0.
func (l *Line) grow() {
	items := make([]lineItem, max(4, 2*len(l.items)))
	k := copy(items, l.items[l.head:])
	copy(items[k:], l.items[:l.head])
	l.items, l.head = items, 0
}

// fire runs the head item: the kernel fires the line's queued items in
// order, so the event firing is always the head's. The item after the new
// head is queued first, so the callback sees two items queued as well.
func (l *Line) fire() {
	mask := len(l.items) - 1
	it := &l.items[l.head]
	fn := it.fn
	it.fn = nil // drop the callback so it can be collected
	l.head = (l.head + 1) & mask
	l.n--
	if l.n >= 2 {
		next := &l.items[(l.head+1)&mask]
		l.sim.queueAt(next.at, next.seq, l.pop)
	}
	fn()
}
