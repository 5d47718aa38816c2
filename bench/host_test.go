package main

import "testing"

// TestReferenceKernelIsFixedWork pins the reference kernel's result, also
// on tables a previous run has used. refNSPerOp and programExponent were
// measured with this exact kernel, so an edit that changes its work changes
// every scaled time and must come with a new A/A record.
func TestReferenceKernelIsFixedWork(t *testing.T) {
	tab := newRefTables()
	for i := range 2 {
		if got := tab.run(100_000, 7); got != 0xcc3c63a9222f3807 {
			t.Errorf("run %d: kernel result %#x, want 0xcc3c63a9222f3807", i, got)
		}
	}
}
