package sim

// Kernel microbenchmark workloads, shared between the go-test benchmarks
// and zero-allocation test in bench_test.go and the repository benchmark's
// per-layer sim.* metrics, so all three time exactly the same code paths.
//
// Each workload performs n operations of its steady-state pattern against a
// fresh Simulator, with all closures hoisted out of the hot loop: what is
// being measured is the kernel's schedule/fire/cancel machinery, not
// caller-side allocation.

// KernelBenchmark is one microbenchmark of the event kernel.
type KernelBenchmark struct {
	Name string
	Run  func(n int) // executes n operations of the workload
}

// KernelBenchmarks returns the kernel benchmark suite in a fixed order.
func KernelBenchmarks() []KernelBenchmark {
	return []KernelBenchmark{
		{Name: "ScheduleFire", Run: benchScheduleFire},
		{Name: "ResetStorm", Run: benchResetStorm},
		{Name: "CancelHeavy", Run: benchCancelHeavy},
		{Name: "MixedMAC", Run: benchMixedMAC},
		{Name: "DenseStorm", Run: benchDenseStorm},
		{Name: "BucketBoundary", Run: benchBucketBoundary},
		{Name: "OverflowMigrate", Run: benchOverflowMigrate},
		{Name: "MetroDense", Run: benchMetroDense},
		{Name: "MetroChurn", Run: benchMetroChurn},
	}
}

// benchScheduleFire keeps exactly one event in flight: the callback
// schedules its successor, so every iteration is one schedule plus one fire.
func benchScheduleFire(n int) {
	s := New(1)
	fired := 0
	var fn func()
	fn = func() {
		fired++
		if fired < n {
			s.Schedule(Microsecond, fn)
		}
	}
	s.Schedule(Microsecond, fn)
	s.Run()
}

// benchResetStorm rearms a single timer on every operation, advancing the
// clock just often enough that the deadline keeps receding and the timer
// almost never fires — the arm/cancel-dominated pattern of retransmission
// timers and micro-sleep policies.
func benchResetStorm(n int) {
	s := New(1)
	t := NewTimer(s, func() {})
	for i := 0; i < n; i++ {
		t.Reset(10 * Microsecond)
		if i%8 == 7 {
			s.RunUntil(s.Now() + Microsecond)
		}
	}
	t.Stop()
	s.Run()
}

// benchCancelHeavy schedules events in batches and cancels every other one
// before draining the rest, stressing the cancellation path and the
// dead-entry handling of the queue.
func benchCancelHeavy(n int) {
	s := New(1)
	nop := func() {}
	const batch = 64
	handles := make([]handle, batch)
	for ops := 0; ops < n; ops += batch {
		for i := range handles {
			handles[i] = s.at(s.now+Time(i+1)*Microsecond, nop)
		}
		for i := 0; i < batch; i += 2 {
			s.cancel(handles[i])
		}
		s.RunUntil(s.Now() + Time(batch+1)*Microsecond)
	}
}

// benchDenseStorm keeps 64 event chains in flight with staggered 1–13 µs
// gaps — a dense-AP / micro-sleep shape no registered experiment has. With
// dozens of events always pending, the front register stays out of the way
// and every operation is a push and a pop on a 64-deep heap.
func benchDenseStorm(n int) {
	s := New(1)
	const chains = 64
	fired := 0
	var fns [chains]func()
	for i := range fns {
		i := i
		fns[i] = func() {
			fired++
			if fired < n {
				s.Schedule(Time(i%13+1), fns[i])
			}
		}
	}
	for i := range fns {
		s.Schedule(Time(i%13+1), fns[i])
	}
	s.Run()
}

// benchBucketBoundary runs two dozen chains whose irregular 1–47 µs gaps
// produce frequent same-instant ties, so the heap's (at, seq) ordering
// does real work on the seq tie-break. It keeps its timing-wheel era name
// because the repository benchmark declares it.
func benchBucketBoundary(n int) {
	s := New(1)
	const chains = 24
	gaps := [8]Time{13, 16, 19, 32, 15, 17, 1, 47}
	fired := 0
	var fns [chains]func()
	for i := range fns {
		i := i
		fns[i] = func() {
			fired++
			if fired < n {
				s.Schedule(gaps[(fired+i)%len(gaps)], fns[i])
			}
		}
	}
	for i := range fns {
		s.Schedule(gaps[i%len(gaps)]+Time(i), fns[i])
	}
	s.Run()
}

// benchOverflowMigrate keeps 16 events in flight 4 ms ahead — far-future
// timers such as beacons and DTIM cycles. It keeps its timing-wheel era
// name because the repository benchmark declares it.
func benchOverflowMigrate(n int) {
	s := New(1)
	const lead = 4096 * Microsecond
	fired := 0
	var fn func()
	fn = func() {
		fired++
		if fired < n {
			s.Schedule(lead, fn)
		}
	}
	for i := 0; i < 16; i++ {
		s.Schedule(lead+Time(i), fn)
	}
	s.Run()
}

// benchMetroDense runs the metro-scale event mix: a handful of aggregated
// processes (downlink streams, a beacon, a slow scan) instead of per-station
// timers. The queue holds ~4 events — the shape 10⁵-station metro scenarios
// put through the kernel.
func benchMetroDense(n int) {
	s := New(1)
	fired := 0
	gaps := [4]Time{37, 53, 811, 100_000} // two downlink streams, a scan, a beacon
	var fns [4]func()
	for i := range fns {
		i := i
		fns[i] = func() {
			fired++
			if fired < n {
				s.Schedule(gaps[i], fns[i])
			}
		}
	}
	for i := range fns {
		s.Schedule(gaps[i], fns[i])
	}
	s.Run()
}

// benchMetroChurn adds association churn to the metro mix: a join stream
// that rearms an aggregated death timer on every event (the thinned-rate
// update as the population shifts), alongside a downlink stream — the
// schedule/cancel-heavy sparse pattern of a churning metro population.
func benchMetroChurn(n int) {
	s := New(1)
	fired := 0
	death := NewTimer(s, func() {})
	var join func()
	join = func() {
		fired++
		death.Reset(Time(fired%977 + 200))
		if fired < n {
			s.Schedule(Time(fired%149+25), join)
		}
	}
	var frames func()
	frames = func() {
		fired++
		if fired < n {
			s.Schedule(Time(fired%43+11), frames)
		}
	}
	s.Schedule(25, join)
	s.Schedule(11, frames)
	s.Run()
	death.Stop()
	s.Run()
}

// benchMixedMAC approximates a station's event mix: a chain of one-shot
// frame events, a periodic beacon ticker and an ARQ timer that is rearmed on
// every frame and essentially never expires.
func benchMixedMAC(n int) {
	s := New(1)
	beacons := 0
	retx := NewTimer(s, func() {})
	NewTicker(s, 100*Microsecond, func() { beacons++ })
	delivered := 0
	var onTx func()
	onTx = func() {
		delivered++
		retx.Reset(30 * Microsecond)
		if delivered < n {
			s.Schedule(Time(delivered%7+1)*Microsecond, onTx)
		} else {
			s.Stop()
		}
	}
	s.Schedule(Microsecond, onTx)
	s.Run()
}
