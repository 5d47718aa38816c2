package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// The trace file written by a traced run is
//
//	{"workload": "...", "seed": N, "spans": [span, ...]}
//
// with spans in start order.
type span struct {
	ID      int     `json:"id"`       // 1-based, in start order
	Parent  int     `json:"parent"`   // ID of the enclosing span; 0 at top level
	Name    string  `json:"name"`     // phase ("round", "layer.codec") or call ("Runner.Run")
	Round   int     `json:"round"`    // repetition index within the phase; -1 when not repeated
	Calls   int     `json:"calls"`    // calls the span covers: 1, or a batch such as N EncodeResult calls
	StartUS float64 `json:"start_us"` // microseconds since the run started
	EndUS   float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. While off it records
// nothing, which is how a traced run times its untraced rounds. It is used
// from the benchmark's main goroutine only.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

// begin opens a span and returns its ID, or 0 while the tracer is off.
func (t *tracer) begin(parent int, name string, round int) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Round: round, Calls: 1,
		StartUS: float64(time.Since(t.t0).Nanoseconds()) / 1e3})
	return len(t.spans)
}

// end closes span id, recording how many calls it covered.
func (t *tracer) end(id, calls int) {
	if id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.EndUS = float64(time.Since(t.t0).Nanoseconds()) / 1e3
	s.Calls = calls
}

// write stores the spans as JSON at path, through a temporary file that is
// renamed into place, or removed if anything fails.
func (t *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".spans-*")
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
