package core

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/channel"
	"repro/internal/qos"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ClientReport summarizes one client's run.
type ClientReport struct {
	ID            int
	AvgPowerW     float64
	EnergyJ       float64
	Underruns     int
	StallTime     sim.Time
	BytesReceived int
	Switches      int
	SlotsServed   int
	SlotsPartial  int
}

// Report summarizes a complete scenario run. Figure 2 is three of these
// side by side; Figure 1 renders the Slots of one.
type Report struct {
	Strategy       string
	Duration       sim.Time
	Clients        []ClientReport
	MeanPowerW     float64
	TotalUnderruns int
	TotalStall     sim.Time
	Slots          []Slot
	Recoveries     int
}

// SavingVs returns the fractional power saving of r relative to a baseline
// (0.97 ⇒ 97 % lower mean WNIC power).
func (r Report) SavingVs(base Report) float64 {
	if base.MeanPowerW <= 0 {
		return 0
	}
	return 1 - r.MeanPowerW/base.MeanPowerW
}

// QoSMaintained reports whether no client ever stalled mid-playback.
func (r Report) QoSMaintained() bool { return r.TotalUnderruns == 0 }

// Hotspot is a ready-to-run scenario: simulator, per-interface channels,
// resource manager and admitted clients.
type Hotspot struct {
	sim      *sim.Simulator
	channels map[Iface]*channel.GilbertElliott
	rm       *ResourceManager
}

// GoodChannelParams returns a quiet link: fades are rare and brief, but a
// fade is a real outage (BER 1e-3 makes 1460-byte frames essentially
// undeliverable), which is what forces interface switching when one is
// scripted to persist.
func GoodChannelParams() channel.GEParams {
	return channel.GEParams{
		MeanGood: 5 * sim.Minute,
		MeanBad:  200 * sim.Millisecond,
		BERGood:  1e-7,
		BERBad:   1e-3,
	}
}

// NewHotspot builds the scenario with nClients default MP3 clients.
// Channels start in the Good state and are frozen for determinism; tests
// and experiments unfreeze or force states as needed.
func NewHotspot(seed int64, cfg Config, nClients int) *Hotspot {
	s := sim.New(seed)
	chans := map[Iface]*channel.GilbertElliott{}
	for _, i := range Ifaces() {
		ch := channel.NewGilbertElliott(s, GoodChannelParams())
		ch.Freeze()
		chans[i] = ch
	}
	rm := NewResourceManager(s, cfg, chans)
	for i := 0; i < nClients; i++ {
		rm.Admit(DefaultClientSpec(i))
	}
	return &Hotspot{sim: s, channels: chans, rm: rm}
}

// Sim returns the scenario's simulator.
func (h *Hotspot) Sim() *sim.Simulator { return h.sim }

// RM returns the resource manager.
func (h *Hotspot) RM() *ResourceManager { return h.rm }

// Channel returns the channel model for an interface.
func (h *Hotspot) Channel(i Iface) *channel.GilbertElliott { return h.channels[i] }

// Run starts the manager, simulates for the duration and builds the report.
func (h *Hotspot) Run(duration sim.Time) Report {
	h.rm.Start()
	h.sim.RunUntil(h.sim.Now() + duration)
	return h.rm.Report()
}

// Report builds a scenario report from the manager's current state. It can
// be called on a hand-assembled ResourceManager after driving the simulator
// directly.
func (rm *ResourceManager) Report() Report {
	return buildReport("hotspot-"+rm.cfg.Scheduler.Name(), rm.sim, rm.clients,
		rm.history, rm.recoveries)
}

func buildReport(strategy string, s *sim.Simulator, clients []*Client, slots []Slot, recoveries int) Report {
	rep := Report{Strategy: strategy, Duration: s.Now(), Slots: slots, Recoveries: recoveries}
	var power stats.Summary
	for _, c := range clients {
		cr := ClientReport{
			ID:            c.spec.ID,
			AvgPowerW:     c.AveragePower(),
			EnergyJ:       c.TotalEnergy(),
			Underruns:     c.buffer.Underruns(),
			StallTime:     c.buffer.StallTime(),
			BytesReceived: c.received,
			Switches:      c.switches,
			SlotsServed:   c.slots,
			SlotsPartial:  c.partial,
		}
		rep.Clients = append(rep.Clients, cr)
		rep.TotalUnderruns += cr.Underruns
		rep.TotalStall += cr.StallTime
		power.Add(cr.AvgPowerW)
	}
	rep.MeanPowerW = power.Mean()
	return rep
}

// RunUnscheduled simulates the Figure 2 baselines: clients streaming MP3
// over an always-connected interface with no burst scheduling. The WNIC
// never leaves its connected state; each media chunk is received as it
// arrives. This is what "first through standard WLAN and Bluetooth
// interfaces with no additional scheduling" measures.
func RunUnscheduled(seed int64, iface Iface, nClients int, duration sim.Time) Report {
	s := sim.New(seed)
	p := profileFor(iface)
	type ucli struct {
		dev *radio.Device
		buf *qos.PlayoutBuffer
		rec int
	}
	clis := make([]*ucli, nClients)
	headerBytes := 60 // per-chunk transport + MAC headers
	for i := 0; i < nClients; i++ {
		u := &ucli{
			dev: radio.NewDeviceInState(s, p, radio.Idle),
			buf: qos.NewPlayoutBuffer(s, qos.MP3Stream()),
		}
		clis[i] = u
		src := app.MP3CBR(s)
		src.Start(func(c app.Chunk) {
			// Receive the chunk as it arrives; if the radio is mid-chunk
			// (only possible at BT rates with jittered arrivals) the bytes
			// still land — we model the receive occupancy best-effort.
			air := p.TxTime(c.Bytes + headerBytes)
			if u.dev.State() == radio.Idle && !u.dev.Transitioning() {
				u.dev.OccupyFor(radio.RX, air, radio.Idle, nil)
			}
			u.buf.Fill(c.Bytes)
			u.rec += c.Bytes
		})
	}
	s.RunUntil(duration)

	rep := Report{Strategy: "unscheduled-" + iface.String(), Duration: s.Now()}
	var power stats.Summary
	for i, u := range clis {
		cr := ClientReport{
			ID:            i,
			AvgPowerW:     u.dev.Meter().AveragePower(),
			EnergyJ:       u.dev.Meter().TotalEnergy(),
			Underruns:     u.buf.Underruns(),
			StallTime:     u.buf.StallTime(),
			BytesReceived: u.rec,
		}
		rep.Clients = append(rep.Clients, cr)
		rep.TotalUnderruns += cr.Underruns
		rep.TotalStall += cr.StallTime
		power.Add(cr.AvgPowerW)
	}
	rep.MeanPowerW = power.Mean()
	return rep
}

// Figure2Row is one bar of the paper's Figure 2.
type Figure2Row struct {
	Strategy  string
	MeanW     float64
	Underruns int
}

// Figure2 runs the three delivery strategies of the paper's evaluation and
// returns their bars plus the headline saving. The shape to reproduce:
// WLAN ≫ Bluetooth ≫ Hotspot scheduling, with the scheduled system saving
// ≈ 97 % of WNIC power while maintaining QoS.
func Figure2(seed int64, nClients int, duration sim.Time) ([]Figure2Row, float64) {
	wlan := RunUnscheduled(seed, WLAN, nClients, duration)
	bt := RunUnscheduled(seed+1, BT, nClients, duration)
	hs := NewHotspot(seed+2, DefaultConfig(), nClients).Run(duration)
	rows := []Figure2Row{
		{Strategy: "WLAN", MeanW: wlan.MeanPowerW, Underruns: wlan.TotalUnderruns},
		{Strategy: "Bluetooth", MeanW: bt.MeanPowerW, Underruns: bt.TotalUnderruns},
		{Strategy: "Hotspot scheduling", MeanW: hs.MeanPowerW, Underruns: hs.TotalUnderruns},
	}
	return rows, hs.SavingVs(wlan)
}

// String renders a report as a table.
func (r Report) String() string {
	t := stats.NewTable(fmt.Sprintf("%s (%v)", r.Strategy, r.Duration),
		"client", "avg W", "energy J", "underruns", "stall", "KB recv", "switches")
	for _, c := range r.Clients {
		t.AddRow(
			fmt.Sprintf("%d", c.ID),
			fmt.Sprintf("%.4f", c.AvgPowerW),
			fmt.Sprintf("%.2f", c.EnergyJ),
			fmt.Sprintf("%d", c.Underruns),
			c.StallTime.String(),
			fmt.Sprintf("%d", c.BytesReceived/1024),
			fmt.Sprintf("%d", c.Switches),
		)
	}
	t.AddNote("mean power %.4f W, recoveries %d", r.MeanPowerW, r.Recoveries)
	return t.String()
}
