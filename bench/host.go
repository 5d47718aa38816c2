package main

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// The host this benchmark runs on is shared: how fast its CPUs execute the
// same instructions drifts by tens of percent, over seconds and over
// minutes, with the load of its other tenants. Raw times would measure that
// drift as much as the program. So a timed run calibrates the host with a
// fixed reference kernel, which belongs to the benchmark and not the
// program, before and after every interval it times, and scales each time
// to the reference host speed: divides it by the slowdown the two
// calibrations around it predict for the program.

// refNSPerOp is the reference host speed: CPU nanoseconds per operation of
// the reference kernel. It is close to the kernel's cost on a quiet
// two-vCPU Xeon VM, so scaled times read close to real ones on that host.
const refNSPerOp = 55.0

// programExponent is how much more the program's times stretch than the
// reference kernel's when the host slows down: a host on which the kernel
// runs k times slower than at the reference speed runs the program
// k^programExponent times slower. The kernel's state fits a core's L2
// cache, while the program's heaps and collections also contend for the
// shared cache and memory, which the other tenants load too. Fitted on the
// host in AA.md: log program time against log kernel cost had slopes of
// 1.26 to 1.55, across benchmark runs of the four workloads and in a run
// that alternated program blocks with the kernel.
const programExponent = 1.4

// calOps is the operations one calibration runs on each of parallel
// goroutines: about 33 ms at the reference speed.
const calOps = 600_000

// refEntities is the number of entities in the reference kernel's state
// table: 1 MiB of it.
const refEntities = 1 << 17

// refTables is the reference kernel's state. It is allocated once per run,
// so calibrating adds nothing to the garbage the program leaves for the
// collector.
type refTables struct {
	heap  []uint64 // binary min-heap of events: time above the low 17 bits, entity below
	state []uint64 // one word per entity
}

func newRefTables() *refTables {
	return &refTables{heap: make([]uint64, 1<<12), state: make([]uint64, refEntities)}
}

// run is the reference kernel: a discrete-event loop in miniature. Each
// operation pops the earliest event, updates the state of its entity and
// schedules a next event a pseudo-random delay later. Like the program's
// simulations it mixes dependent integer arithmetic, unpredictable branches
// and cache-missing loads; it allocates nothing. It starts from cleared
// state, so the same ops and seed always do the same work.
func (t *refTables) run(ops int, seed uint64) uint64 {
	h, state := t.heap, t.state
	clear(state)
	x := seed | 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range h {
		h[i] = next()%(1<<20)<<17 | next()%refEntities
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for range ops {
		ev := h[0]
		id := ev % refEntities
		state[id] = state[id]*6364136223846793005 + ev
		h[0] = (ev>>17+1+next()%1024+state[id]%64)<<17 | (id^next())%refEntities
		siftDown(h, 0)
	}
	sum := x
	for _, s := range state {
		sum += s
	}
	return sum
}

// siftDown restores the min-heap order below h[i].
func siftDown(h []uint64, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// calibrator measures the host's speed with the reference kernel, between
// the intervals a run times.
type calibrator struct {
	tables [parallel]*refTables
	costs  []float64 // ns per operation of every calibration so far
	last   float64   // the latest of costs; 0 before the first
	sink   uint64    // keeps the kernel's result live
}

func newCalibrator() *calibrator {
	c := &calibrator{}
	for i := range c.tables {
		c.tables[i] = newRefTables()
	}
	return c
}

// mark calibrates, starting an interval.
func (c *calibrator) mark() {
	c.last = c.nsPerOp()
	c.costs = append(c.costs, c.last)
}

// slowdown calibrates, ending the interval that began at the previous
// calibration, and returns how many times slower than at the reference
// speed the program ran over it: the kernel's slowdown, the mean cost of
// the two calibrations that bracket the interval (the later one alone if
// there was none before) over refNSPerOp, to the power programExponent.
func (c *calibrator) slowdown() float64 {
	prev := c.last
	c.mark()
	k := c.last / refNSPerOp
	if prev != 0 {
		k = (prev + c.last) / 2 / refNSPerOp
	}
	return math.Pow(k, programExponent)
}

// nsPerOp runs the reference kernel on parallel goroutines at once, each
// on its own OS thread, as the program's rounds load every CPU, and
// returns the CPU time one operation took, in nanoseconds. CPU time rather
// than wall time, so that a thread of this process that happens to run
// meanwhile (a garbage collection the last round left) does not count.
func (c *calibrator) nsPerOp() float64 {
	var wg sync.WaitGroup
	var cpu [parallel]time.Duration
	var sums [parallel]uint64
	for g := range parallel {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			t0 := cpuTime(syscall.RUSAGE_THREAD)
			sums[g] = c.tables[g].run(calOps, uint64(g)+1)
			cpu[g] = cpuTime(syscall.RUSAGE_THREAD) - t0
		}()
	}
	wg.Wait()
	total := time.Duration(0)
	for g := range parallel {
		total += cpu[g]
		c.sink += sums[g]
	}
	return float64(total.Nanoseconds()) / float64(parallel*calOps)
}
