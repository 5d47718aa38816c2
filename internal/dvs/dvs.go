// Package dvs implements CPU dynamic voltage scaling under real-time
// scheduling — the "more traditional CPU voltage scaling and scheduling"
// the paper lists among OS-level techniques. Periodic tasks run under EDF;
// DVS policies pick the clock frequency: none (always max), the static
// utilization-optimal setting, and cycle-conserving reclamation of unused
// worst-case budget (Pillai–Shin style).
//
// Power follows the classic model P(f) ∝ f³ (voltage tracks frequency)
// plus a static floor, so halving the clock cuts dynamic power ~8x while
// the work takes 2x longer — a net win whenever deadlines still hold.
package dvs

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Task is one periodic real-time task: a job is released every Period with
// WCETCycles of worst-case work due one Period later. Actual jobs consume
// UsageFactor×WCET cycles (real workloads rarely hit their WCET, which is
// exactly what cycle-conserving DVS reclaims).
type Task struct {
	Name        string
	Period      sim.Time
	WCETCycles  float64 // cycles at any frequency (cycles, not seconds)
	UsageFactor float64 // actual/WCET in (0, 1]
}

// Validate checks the task.
func (t Task) Validate() error {
	if t.Period <= 0 || t.WCETCycles <= 0 {
		return fmt.Errorf("dvs: task %q needs positive period and WCET", t.Name)
	}
	if t.UsageFactor <= 0 || t.UsageFactor > 1 {
		return fmt.Errorf("dvs: task %q usage factor outside (0,1]", t.Name)
	}
	return nil
}

// CPU describes the frequency ladder. Frequencies are in cycles/second,
// ascending; Power(f) = StaticW + DynCoeff·f³ (normalized).
type CPU struct {
	Frequencies []float64
	StaticW     float64
	DynCoeffW   float64 // watts at fmax: DynCoeffW·(f/fmax)³
}

// DefaultCPU returns a 4-step ladder patterned on an XScale-class part:
// 150–600 MHz, ~0.08 W static, ~0.9 W dynamic at full clock.
func DefaultCPU() CPU {
	return CPU{
		Frequencies: []float64{150e6, 300e6, 450e6, 600e6},
		StaticW:     0.08,
		DynCoeffW:   0.9,
	}
}

// Validate checks the ladder.
func (c CPU) Validate() error {
	if len(c.Frequencies) == 0 {
		return fmt.Errorf("dvs: empty frequency ladder")
	}
	for i, f := range c.Frequencies {
		if f <= 0 {
			return fmt.Errorf("dvs: non-positive frequency")
		}
		if i > 0 && f <= c.Frequencies[i-1] {
			return fmt.Errorf("dvs: ladder not ascending")
		}
	}
	return nil
}

// FMax returns the top frequency.
func (c CPU) FMax() float64 { return c.Frequencies[len(c.Frequencies)-1] }

// Power returns the draw when running at f (0 when idle-with-clock-gated,
// modelled as the static floor only).
func (c CPU) Power(f float64) float64 {
	if f <= 0 {
		return c.StaticW
	}
	r := f / c.FMax()
	return c.StaticW + float64(c.DynCoeffW*r*r*r)
}

// StepFor returns the lowest ladder frequency ≥ want (or FMax).
func (c CPU) StepFor(want float64) float64 {
	for _, f := range c.Frequencies {
		if f >= want {
			return f
		}
	}
	return c.FMax()
}

// PolicyKind selects the DVS discipline.
type PolicyKind int

// DVS policies.
const (
	// NoDVS runs every job at full clock.
	NoDVS PolicyKind = iota
	// StaticDVS sets the frequency to utilization·fmax once, up front.
	StaticDVS
	// CycleConserving reclaims unused WCET: when a job finishes early the
	// remaining jobs run slower until the next release (Pillai–Shin CC-EDF).
	CycleConserving
)

// String names the policy.
func (p PolicyKind) String() string {
	switch p {
	case NoDVS:
		return "no-dvs"
	case StaticDVS:
		return "static"
	case CycleConserving:
		return "cycle-conserving"
	default:
		return fmt.Sprintf("dvs(%d)", int(p))
	}
}

// Result reports a schedule run.
type Result struct {
	Policy         string
	EnergyJ        float64
	Jobs           int
	DeadlineMisses int
	MeanResponse   sim.Time
	BusyFraction   float64
}

// job is one released instance.
type job struct {
	task      int
	release   sim.Time
	deadline  sim.Time
	remaining float64 // cycles
	actual    float64 // cycles this instance really needs
}

// Run schedules the task set under EDF with the given DVS policy for the
// horizon and returns energy/deadline statistics.
func Run(s *sim.Simulator, cpu CPU, policy PolicyKind, tasks []Task, horizon sim.Time) Result {
	if err := cpu.Validate(); err != nil {
		panic(err)
	}
	util := 0.0
	for _, t := range tasks {
		if err := t.Validate(); err != nil {
			panic(err)
		}
		util += t.WCETCycles / (t.Period.Seconds() * cpu.FMax())
	}

	e := &engine{s: s, cpu: cpu, policy: policy, tasks: tasks, utilWCET: util}
	e.runDone = sim.NewTimer(s, func() { e.complete(e.running) })
	// Per-task reclaimable utilization for cycle-conserving EDF.
	e.ccUtil = make([]float64, len(tasks))
	for i, t := range tasks {
		e.ccUtil[i] = t.WCETCycles / (t.Period.Seconds() * cpu.FMax())
	}
	for i := range tasks {
		i := i
		s.At(0, func() { e.release(i) })
	}
	s.RunUntil(horizon)
	e.settle()

	res := Result{
		Policy:         policy.String(),
		EnergyJ:        e.energy,
		Jobs:           e.jobs,
		DeadlineMisses: e.misses,
	}
	if horizon > 0 {
		res.BusyFraction = e.busy.Seconds() / horizon.Seconds()
	}
	if e.completed > 0 {
		res.MeanResponse = e.totalResp / sim.Time(e.completed)
	}
	return res
}

// engine is the EDF+DVS executive.
type engine struct {
	s      *sim.Simulator
	cpu    CPU
	policy PolicyKind
	tasks  []Task

	ready    []*job
	running  *job
	runFreq  float64
	runStart sim.Time
	runDone  *sim.Timer // completes the running job
	lastAt   sim.Time

	utilWCET float64
	ccUtil   []float64 // current per-task utilization view (CC-EDF)

	energy    float64
	busy      sim.Time
	jobs      int
	misses    int
	completed int
	totalResp sim.Time
}

// settle integrates power since the last state change.
func (e *engine) settle() {
	now := e.s.Now()
	dt := (now - e.lastAt).Seconds()
	if dt > 0 {
		f := 0.0
		if e.running != nil {
			f = e.runFreq
			e.busy += now - e.lastAt
		}
		e.energy += float64(e.cpu.Power(f) * dt)
	}
	e.lastAt = now
}

// release creates the next job of task i and re-arms its period.
func (e *engine) release(i int) {
	t := e.tasks[i]
	now := e.s.Now()
	j := &job{
		task:     i,
		release:  now,
		deadline: now + t.Period,
		actual:   t.WCETCycles * t.UsageFactor,
	}
	j.remaining = j.actual
	e.jobs++
	// CC-EDF: at release, the task's utilization reverts to its WCET view.
	e.ccUtil[i] = t.WCETCycles / (t.Period.Seconds() * e.cpu.FMax())
	e.ready = append(e.ready, j)
	e.s.Schedule(t.Period, func() { e.release(i) })
	e.reschedule()
}

// frequency picks the clock per policy given the current utilization view.
func (e *engine) frequency() float64 {
	switch e.policy {
	case NoDVS:
		return e.cpu.FMax()
	case StaticDVS:
		return e.cpu.StepFor(e.utilWCET * e.cpu.FMax())
	case CycleConserving:
		u := 0.0
		for _, x := range e.ccUtil {
			u += x
		}
		if u > 1 {
			u = 1
		}
		return e.cpu.StepFor(u * e.cpu.FMax())
	default:
		return e.cpu.FMax()
	}
}

// reschedule preempts as needed and (re)starts the earliest-deadline job.
func (e *engine) reschedule() {
	e.settle()
	// Preempt the running job, deducting the cycles it completed.
	if e.running != nil && e.runDone.Stop() {
		elapsed := (e.s.Now() - e.runStart).Seconds()
		e.running.remaining -= float64(elapsed * e.runFreq)
		if e.running.remaining < 0 {
			e.running.remaining = 0
		}
		e.ready = append(e.ready, e.running)
		e.running = nil
	}
	if len(e.ready) == 0 {
		return
	}
	sort.Slice(e.ready, func(a, b int) bool { return e.ready[a].deadline < e.ready[b].deadline })
	j := e.ready[0]
	e.ready = e.ready[1:]
	e.running = j
	e.runFreq = e.frequency()
	e.runStart = e.s.Now()
	dur := sim.FromSeconds(j.remaining / e.runFreq)
	if dur < sim.Microsecond {
		dur = sim.Microsecond
	}
	e.runDone.Reset(dur)
}

// complete retires the running job.
func (e *engine) complete(j *job) {
	e.settle()
	j.remaining = 0
	e.running = nil
	e.completed++
	resp := e.s.Now() - j.release
	e.totalResp += resp
	if e.s.Now() > j.deadline {
		e.misses++
	}
	if e.policy == CycleConserving {
		// The job used fewer cycles than its WCET: until its next release
		// this task only "occupies" its actual utilization.
		t := e.tasks[j.task]
		e.ccUtil[j.task] = j.actual / (t.Period.Seconds() * e.cpu.FMax())
	}
	e.reschedule()
}
