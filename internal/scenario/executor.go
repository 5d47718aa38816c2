package scenario

import (
	"sync"
)

// Emit receives one seed's Result. Executors call it with the index into
// the seeds slice they were given.
type Emit func(seedIdx int, res Result)

// Executor is a pluggable execution backend: it runs one spec across a
// set of seeds and streams the per-seed Results back.
//
// The contract every backend honours — and the cross-backend equivalence
// test pins — is that emit is called exactly once per seed, sequentially,
// in seed order. That makes downstream aggregation (the Runner's streaming
// stats.Summary folds) bit-identical across backends: the fold sequence is
// always seed order, however the work was scheduled, sharded or cached.
//
// Implementations may be used by several Runner goroutines concurrently
// (one Run call per spec); any internal capacity limit must therefore be
// shared across Run calls, not per call. Backends holding external
// resources additionally implement io.Closer.
type Executor interface {
	Run(spec Spec, seeds []int64, emit Emit) error
}

// Local executes seeds in-process on a bounded goroutine pool. It is the
// default backend, and Cache usually decorates a Local.
//
// The pool is shared across concurrent Run calls, so a Runner fanning many
// specs over one Local never exceeds Parallel simulations in flight.
type Local struct {
	Parallel int // pool size; values < 1 mean 1

	once sync.Once
	sem  chan struct{}
}

func (l *Local) init() {
	p := l.Parallel
	if p < 1 {
		p = 1
	}
	l.sem = make(chan struct{}, p)
}

// Run executes spec on every seed, at most Parallel at a time, and emits
// the Results in seed order regardless of completion order.
func (l *Local) Run(spec Spec, seeds []int64, emit Emit) error {
	l.once.Do(l.init)
	ord := newReorder(emit)
	var wg sync.WaitGroup
	for ki := range seeds {
		l.sem <- struct{}{} // bounds in-flight goroutines, not just running ones
		wg.Add(1)
		go func(ki int) {
			defer wg.Done()
			res := spec.Execute(seeds[ki])
			<-l.sem
			ord.deliver(ki, res)
		}(ki)
	}
	wg.Wait()
	return nil
}

// reorder turns out-of-order (index, Result) completions into in-order
// emit calls. It buffers only the completions that arrived ahead of their
// turn, so a sweep over thousands of seeds holds the out-of-order window,
// not every Result. Because each emit sequence it produces is exactly
// index order, the Summary folds downstream see the same Add sequence as
// a fully sequential run — the merge is bit-exact by construction, which
// TestReorderedMergeBitIdentical pins over random partitions.
type reorder struct {
	mu      sync.Mutex
	next    int
	pending map[int]Result
	emit    Emit
}

func newReorder(emit Emit) *reorder {
	return &reorder{pending: make(map[int]Result), emit: emit}
}

// deliver hands over one completion; any emits it unblocks run on the
// calling goroutine, serialized by the internal lock.
func (o *reorder) deliver(i int, res Result) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.pending[i] = res
	for {
		res, ok := o.pending[o.next]
		if !ok {
			return
		}
		delete(o.pending, o.next)
		o.emit(o.next, res)
		o.next++
	}
}
