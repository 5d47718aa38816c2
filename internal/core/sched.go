package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/sim"
)

// Demand is one client's transfer requirement for an upcoming epoch.
type Demand struct {
	Client int
	Iface  Iface
	Bytes  int
	// Deadline is when the client's playout buffer would run dry; EDF
	// orders by it.
	Deadline sim.Time
	// Weight is the client's bandwidth share (its stream rate); WFQ orders
	// by weighted virtual finish times.
	Weight float64
	// EstDur is the estimated slot duration including guard time.
	EstDur sim.Time
}

// SlotKind distinguishes how a slot entered the schedule.
type SlotKind int

// Slot kinds.
const (
	// SlotBulk is a regular epoch-layout burst; bulk slots never overlap
	// on an interface.
	SlotBulk SlotKind = iota
	// SlotRescue is a deadline-bridging burst inserted at epoch layout.
	SlotRescue
	// SlotRecovery is a reactive burst after a failed slot; it may preempt
	// the AP's queue (modelled as permissible overlap).
	SlotRecovery
	// SlotUrgent is a watchdog top-up; like recovery it may preempt.
	SlotUrgent
)

// String names the kind.
func (k SlotKind) String() string {
	switch k {
	case SlotBulk:
		return "bulk"
	case SlotRescue:
		return "rescue"
	case SlotRecovery:
		return "recovery"
	default:
		return "urgent"
	}
}

// Slot is one scheduled burst: client, interface, time window, payload.
// Figure 1 is a rendering of a slice of these.
type Slot struct {
	Client int
	Iface  Iface
	Start  sim.Time
	End    sim.Time
	Bytes  int
	Kind   SlotKind
}

// String renders a slot compactly.
func (s Slot) String() string {
	return fmt.Sprintf("client %d on %v [%v, %v] %d B", s.Client, s.Iface, s.Start, s.End, s.Bytes)
}

// Scheduler orders demands for service within an epoch. The resource
// manager lays slots out sequentially per interface in the returned order.
// Implementations mirror the paper's menu: "ranging from standard real-time
// schedulers such as earliest deadline first, to well known packet level
// schedulers such as weighted fair queuing".
type Scheduler interface {
	Name() string
	// Order returns the service order for one interface's demands. It may
	// reorder demands in place and return it; callers that need the input
	// order afterwards must pass a copy.
	Order(epoch int, demands []Demand) []Demand
}

// EDF is earliest-deadline-first: urgency wins, which minimizes deadline
// misses whenever the demand set is feasible.
type EDF struct{}

// Name implements Scheduler.
func (EDF) Name() string { return "edf" }

// Order implements Scheduler. It sorts demands in place, stably.
func (EDF) Order(_ int, demands []Demand) []Demand {
	slices.SortStableFunc(demands, func(a, b Demand) int { return cmp.Compare(a.Deadline, b.Deadline) })
	return demands
}

// WFQ is weighted fair queuing at burst granularity: each client carries a
// virtual finish time advanced by bytes/weight, and service follows finish
// tags. Long-run throughput is proportional to weights regardless of burst
// sizes.
type WFQ struct {
	virtual map[int]float64
	vnow    float64
	tags    []wfqTag // scratch, reused across Order calls
}

// wfqTag is one demand with its virtual finish time.
type wfqTag struct {
	d      Demand
	finish float64
}

// NewWFQ creates a weighted-fair-queuing scheduler.
func NewWFQ() *WFQ { return &WFQ{virtual: make(map[int]float64)} }

// Name implements Scheduler.
func (w *WFQ) Name() string { return "wfq" }

// Order implements Scheduler. It writes the finish-tag order back into
// demands.
func (w *WFQ) Order(_ int, demands []Demand) []Demand {
	tags := w.tags[:0]
	maxFinish := w.vnow
	for _, d := range demands {
		weight := d.Weight
		if weight <= 0 {
			weight = 1
		}
		start := w.virtual[d.Client]
		if start < w.vnow {
			start = w.vnow
		}
		finish := start + float64(d.Bytes)/weight
		w.virtual[d.Client] = finish
		if finish > maxFinish {
			maxFinish = finish
		}
		tags = append(tags, wfqTag{d: d, finish: finish})
	}
	w.vnow = maxFinish
	slices.SortStableFunc(tags, func(a, b wfqTag) int { return cmp.Compare(a.finish, b.finish) })
	for i, t := range tags {
		demands[i] = t.d
	}
	w.tags = tags
	return demands
}

// RoundRobin rotates service order each epoch: the baseline that is fair in
// turns but blind to both deadlines and weights.
type RoundRobin struct{}

// Name implements Scheduler.
func (RoundRobin) Name() string { return "round-robin" }

// Order implements Scheduler. It sorts and rotates demands in place.
func (RoundRobin) Order(epoch int, demands []Demand) []Demand {
	slices.SortStableFunc(demands, func(a, b Demand) int { return cmp.Compare(a.Client, b.Client) })
	if len(demands) == 0 {
		return demands
	}
	// Rotate left by k: three reversals, no scratch.
	k := epoch % len(demands)
	slices.Reverse(demands[:k])
	slices.Reverse(demands[k:])
	slices.Reverse(demands)
	return demands
}

// layoutSlots appends to dst sequential windows on one interface's timeline
// starting at start and ending no later than limit, one slot per demand at
// most and in demand order. Demands that do not fit are truncated to the
// remaining window (possibly to zero bytes): the scheduler's ordering
// therefore decides who suffers under overload.
func layoutSlots(dst []Slot, ordered []Demand, start, limit sim.Time, guard sim.Time, kind SlotKind,
	durFor func(d Demand, bytes int) sim.Time) []Slot {
	cursor := start
	for _, d := range ordered {
		if d.Bytes <= 0 {
			continue
		}
		if cursor >= limit {
			break
		}
		bytes := d.Bytes
		dur := durFor(d, bytes)
		if cursor+dur > limit {
			// Shrink proportionally to the window that remains.
			avail := limit - cursor
			frac := float64(avail) / float64(dur)
			bytes = int(float64(bytes) * frac)
			if bytes <= 0 {
				continue
			}
			dur = durFor(d, bytes)
		}
		dst = append(dst, Slot{
			Client: d.Client, Iface: d.Iface,
			Start: cursor, End: cursor + dur, Bytes: bytes, Kind: kind,
		})
		cursor += dur + guard
	}
	return dst
}
