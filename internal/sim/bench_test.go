package sim

import "testing"

// BenchmarkKernel runs the shared kernel workloads (see benchmarks.go) as
// standard sub-benchmarks; the repository benchmark (bench/) times the
// same functions for its per-layer sim.* metrics.
func BenchmarkKernel(b *testing.B) {
	for _, k := range KernelBenchmarks() {
		b.Run(k.Name, func(b *testing.B) {
			b.ReportAllocs()
			k.Run(b.N)
		})
	}
}

// TestKernelBenchmarksMarginalOpAllocatesNothing pins the kernel's
// zero-allocation contract on every shared workload: each Run builds a
// fresh Simulator, so it pays a fixed set-up cost, but doubling the number
// of operations past warm-up must not add a single allocation. A
// schedule, fire, cancel or timer path that allocates per event fails
// here for whichever workload drives it.
func TestKernelBenchmarksMarginalOpAllocatesNothing(t *testing.T) {
	const n = 1 << 12
	for _, k := range KernelBenchmarks() {
		t.Run(k.Name, func(t *testing.T) {
			once := testing.AllocsPerRun(5, func() { k.Run(n) })
			twice := testing.AllocsPerRun(5, func() { k.Run(2 * n) })
			if twice != once {
				t.Errorf("Run(%d) allocates %v, Run(%d) %v: the marginal op allocates", n, once, 2*n, twice)
			}
		})
	}
}
