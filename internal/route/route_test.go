package route

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

var policies = []Policy{MinHop, MinEnergy, MaxMinBattery, Conditional}

// --- reference implementation ---
//
// refRoute and refSend are the package's original search machinery:
// container/heap over *refItem, an O(N) neighbour scan that allocates per
// popped node, closure edge weights and fresh dist/prev/visited slices per
// search, with no cache. They share no search code with the package and are
// the oracle its static adjacency, reused scratch and route cache are
// checked against.

type refItem struct {
	id    int
	prio  float64
	index int
}

type refPQ struct {
	items []*refItem
	max   bool
}

func (q refPQ) Len() int { return len(q.items) }
func (q refPQ) Less(i, j int) bool {
	if q.max {
		return q.items[i].prio > q.items[j].prio
	}
	return q.items[i].prio < q.items[j].prio
}
func (q refPQ) Swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
	q.items[i].index = i
	q.items[j].index = j
}
func (q *refPQ) Push(x any) {
	it := x.(*refItem)
	it.index = len(q.items)
	q.items = append(q.items, it)
}
func (q *refPQ) Pop() any {
	old := q.items
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	q.items = old[:n-1]
	return it
}

func refNeighbors(n *Network, a *Node) []*Node {
	var out []*Node
	for _, b := range n.nodes {
		if b == a || !b.Alive() {
			continue
		}
		if n.dist(a, b) <= n.rang {
			out = append(out, b)
		}
	}
	return out
}

func refLinkEnergy(n *Network, a, b *Node) float64 {
	d := n.dist(a, b)
	return n.cost.TxEnergy(1, d) + n.cost.RxEnergy(1)
}

func refRoute(n *Network, policy Policy, src, dst int) []int {
	s, d := n.nodes[src], n.nodes[dst]
	if !s.Alive() || !d.Alive() {
		return nil
	}
	energy := func(a, b *Node) float64 { return refLinkEnergy(n, a, b) }
	switch policy {
	case MinHop:
		return refDijkstra(n, src, dst, func(a, b *Node) float64 { return 1 })
	case MinEnergy:
		return refDijkstra(n, src, dst, energy)
	case MaxMinBattery:
		return refWidest(n, src, dst)
	case Conditional:
		p := refDijkstra(n, src, dst, energy)
		if p == nil {
			return nil
		}
		for _, id := range p {
			if n.nodes[id].Level() < n.BatteryThreshold {
				return refWidest(n, src, dst)
			}
		}
		return p
	default:
		panic(fmt.Sprintf("route: unknown policy %d", int(policy)))
	}
}

func refSend(n *Network, policy Policy, src, dst, bits int) bool {
	path := refRoute(n, policy, src, dst)
	if path == nil {
		n.failedPkts++
		return false
	}
	for i := 0; i+1 < len(path); i++ {
		a, b := n.nodes[path[i]], n.nodes[path[i+1]]
		d := n.dist(a, b)
		tx := n.cost.TxEnergy(bits, d)
		rx := n.cost.RxEnergy(bits)
		refDrain(n, a, tx)
		refDrain(n, b, rx)
		n.totalEnergyJ += tx + rx
	}
	n.deliveredPkts++
	return true
}

func refDrain(n *Network, nd *Node, j float64) {
	if !nd.Alive() {
		return
	}
	nd.Battery -= j
	if nd.Battery <= 0 {
		nd.Battery = 0
		if n.firstDeathPkt == -1 {
			n.firstDeathPkt = n.deliveredPkts
		}
	}
}

func refDijkstra(n *Network, src, dst int, weight func(a, b *Node) float64) []int {
	const inf = math.MaxFloat64
	dist := make([]float64, len(n.nodes))
	prev := make([]int, len(n.nodes))
	for i := range dist {
		dist[i] = inf
		prev[i] = -1
	}
	dist[src] = 0
	q := &refPQ{}
	heap.Push(q, &refItem{id: src, prio: 0})
	visited := make([]bool, len(n.nodes))
	for q.Len() > 0 {
		u := heap.Pop(q).(*refItem).id
		if visited[u] {
			continue
		}
		visited[u] = true
		if u == dst {
			break
		}
		for _, b := range refNeighbors(n, n.nodes[u]) {
			w := weight(n.nodes[u], b)
			if nd := dist[u] + w; nd < dist[b.ID] {
				dist[b.ID] = nd
				prev[b.ID] = u
				heap.Push(q, &refItem{id: b.ID, prio: nd})
			}
		}
	}
	if dist[dst] == inf {
		return nil
	}
	return refUnwind(prev, src, dst)
}

func refWidest(n *Network, src, dst int) []int {
	width := make([]float64, len(n.nodes))
	prev := make([]int, len(n.nodes))
	for i := range width {
		width[i] = -1
		prev[i] = -1
	}
	width[src] = n.nodes[src].Level()
	q := &refPQ{max: true}
	heap.Push(q, &refItem{id: src, prio: width[src]})
	visited := make([]bool, len(n.nodes))
	for q.Len() > 0 {
		u := heap.Pop(q).(*refItem).id
		if visited[u] {
			continue
		}
		visited[u] = true
		if u == dst {
			break
		}
		for _, b := range refNeighbors(n, n.nodes[u]) {
			w := math.Min(width[u], b.Level())
			if w > width[b.ID] {
				width[b.ID] = w
				prev[b.ID] = u
				heap.Push(q, &refItem{id: b.ID, prio: w})
			}
		}
	}
	if width[dst] < 0 {
		return nil
	}
	return refUnwind(prev, src, dst)
}

func refUnwind(prev []int, src, dst int) []int {
	var rev []int
	for at := dst; at != -1; at = prev[at] {
		rev = append(rev, at)
		if at == src {
			break
		}
	}
	if rev[len(rev)-1] != src {
		return nil
	}
	out := make([]int, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

// diffState describes the first difference between a network driven by the
// package and one driven by the reference, or returns "" when their
// counters and battery bits agree.
func diffState(got, want *Network) string {
	gd, gf, ge, gfd := got.Stats()
	wd, wf, we, wfd := want.Stats()
	if gd != wd || gf != wf || math.Float64bits(ge) != math.Float64bits(we) || gfd != wfd {
		return fmt.Sprintf("stats (%d, %d, %v, %d), reference (%d, %d, %v, %d)",
			gd, gf, ge, gfd, wd, wf, we, wfd)
	}
	for i, nd := range got.nodes {
		if g, w := nd.Battery, want.nodes[i].Battery; math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Sprintf("node %d battery %v, reference %v", i, g, w)
		}
	}
	return ""
}

// TestMatchesReferenceProperty drives twin random networks, one through the
// package and one through the reference, with the same random sequence of
// routes, sends and direct battery writes (depletion, partial level,
// recharge) under all four policies. Paths, send results, Stats and battery
// bits must agree after every step. The 100-node networks span two words of
// the alive bitset.
func TestMatchesReferenceProperty(t *testing.T) {
	for _, size := range []int{25, 100} {
		side := 10 * math.Sqrt(float64(size)) // same density at both sizes
		for seed := int64(1); seed <= 30; seed++ {
			got := newRandom(rand.New(rand.NewSource(seed)), size, side, 18, 1, DefaultRadioCost())
			want := newRandom(rand.New(rand.NewSource(seed)), size, side, 18, 1, DefaultRadioCost())
			rng := rand.New(rand.NewSource(-seed))
			got.BatteryThreshold = rng.Float64() * 0.6
			want.BatteryThreshold = got.BatteryThreshold
			// Most traffic runs between a few pairs, so cached paths are hit
			// again after the batteries change under them.
			var pairs [8][2]int
			for i := range pairs {
				pairs[i] = [2]int{rng.Intn(size), rng.Intn(size)}
			}
			var last []int // the latest routed path
			for step := 0; step < 400; step++ {
				policy := policies[rng.Intn(len(policies))]
				src, dst := rng.Intn(size), rng.Intn(size)
				if rng.Intn(4) > 0 {
					p := pairs[rng.Intn(len(pairs))]
					src, dst = p[0], p[1]
				}
				var op string
				switch k := rng.Intn(10); {
				case k < 3:
					op = fmt.Sprintf("route(%v, %d, %d)", policy, src, dst)
					g, w := slices.Clone(got.route(policy, src, dst)), refRoute(want, policy, src, dst)
					if !slices.Equal(g, w) || (g == nil) != (w == nil) {
						t.Fatalf("size %d seed %d step %d: %s = %v, reference %v", size, seed, step, op, g, w)
					}
					last = g
				case k == 8 && len(last) > 2:
					// Kill a relay the latest path (maybe a cached one) uses.
					relay := last[1+rng.Intn(len(last)-2)]
					op = fmt.Sprintf("Node(%d).Battery = 0", relay)
					got.Node(relay).Battery = 0
					want.Node(relay).Battery = 0
				case k < 8:
					bits := 1 + rng.Intn(400_000)
					op = fmt.Sprintf("Send(%v, %d, %d, %d)", policy, src, dst, bits)
					if g, w := got.Send(policy, src, dst, bits), refSend(want, policy, src, dst, bits); g != w {
						t.Fatalf("size %d seed %d step %d: %s = %v, reference %v", size, seed, step, op, g, w)
					}
				default:
					level := [...]float64{0, rng.Float64(), 1}[rng.Intn(3)]
					op = fmt.Sprintf("Node(%d).Battery = %v", src, level)
					got.Node(src).Battery = level
					want.Node(src).Battery = level
				}
				if d := diffState(got, want); d != "" {
					t.Fatalf("size %d seed %d step %d after %s: %s", size, seed, step, op, d)
				}
			}
		}
	}
}

// TestE16ShapeMatchesReference runs e16's workload (5×5 grid, 0.03 J
// batteries, 40k edge-to-edge packets per policy) through both
// implementations for three seeds, comparing after every packet.
func TestE16ShapeMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, policy := range policies {
			got := NewGrid(5, 5, 10, 15, 0.03, DefaultRadioCost())
			want := NewGrid(5, 5, 10, 15, 0.03, DefaultRadioCost())
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40000; i++ {
				src, dst := rng.Intn(5), 20+rng.Intn(5)
				g, w := got.Send(policy, src, dst, 8000), refSend(want, policy, src, dst, 8000)
				if g != w {
					t.Fatalf("seed %d %v packet %d: Send = %v, reference %v", seed, policy, i, g, w)
				}
				if d := diffState(got, want); d != "" {
					t.Fatalf("seed %d %v packet %d: %s", seed, policy, i, d)
				}
			}
		}
	}
}

// diamond places src 0 and dst 3 20 m apart, out of each other's range,
// with relays 1 and 2 symmetric between them. Ties go to the lower index,
// so relay 1 carries every route while it is alive.
func diamond() *Network {
	net := &Network{rang: 15, cost: DefaultRadioCost(), BatteryThreshold: 0.2, firstDeathPkt: -1}
	for id, xy := range [][2]float64{{0, 0}, {10, 5}, {10, -5}, {20, 0}} {
		net.nodes = append(net.nodes, &Node{ID: id, X: xy[0], Y: xy[1], Battery: 1, capacity: 1})
	}
	return net
}

func TestRouteFollowsDirectBatteryWrites(t *testing.T) {
	steps := []struct {
		battery float64 // written straight to relay 1
		want    []int
	}{
		{1, []int{0, 1, 3}},
		{0, []int{0, 2, 3}}, // dead relay avoided
		{1, []int{0, 1, 3}}, // recharged relay reused
	}
	for _, policy := range policies {
		n := diamond()
		for i, s := range steps {
			n.Node(1).Battery = s.battery
			if got := slices.Clone(n.route(policy, 0, 3)); !slices.Equal(got, s.want) {
				t.Errorf("%v step %d (relay battery %v): path %v, want %v", policy, i, s.battery, got, s.want)
			}
		}
	}
}

// sendCases are the steady-state Send workloads: each policy on e16's grid
// with batteries no test drains, plus Conditional with a threshold above
// every level so that it takes its widest-path leg.
var sendCases = []struct {
	name      string
	policy    Policy
	threshold float64
}{
	{"min-hop", MinHop, 0.2},
	{"min-energy", MinEnergy, 0.2},
	{"max-min-battery", MaxMinBattery, 0.2},
	{"conditional", Conditional, 0.2},
	{"conditional-protect", Conditional, 2},
}

// edgePairs is e16's traffic: every left-edge source to every right-edge
// destination of the 5×5 grid.
func edgePairs() [][2]int {
	var out [][2]int
	for src := 0; src < 5; src++ {
		for dst := 20; dst < 25; dst++ {
			out = append(out, [2]int{src, dst})
		}
	}
	return out
}

func TestSendSteadyStateAllocFree(t *testing.T) {
	pairs := edgePairs()
	for _, c := range sendCases {
		n := NewGrid(5, 5, 10, 15, 1e6, DefaultRadioCost())
		n.BatteryThreshold = c.threshold
		for _, p := range pairs { // warm-up: adjacency, scratch and cache
			n.Send(c.policy, p[0], p[1], 8000)
		}
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			p := pairs[i%len(pairs)]
			i++
			if !n.Send(c.policy, p[0], p[1], 8000) {
				t.Fatalf("%s: send %v failed", c.name, p)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per steady-state Send, want 0", c.name, allocs)
		}
	}
}

func BenchmarkSend(b *testing.B) {
	pairs := edgePairs()
	for _, c := range sendCases {
		b.Run(c.name, func(b *testing.B) {
			n := NewGrid(5, 5, 10, 15, 1e6, DefaultRadioCost())
			n.BatteryThreshold = c.threshold
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				p := pairs[i%len(pairs)]
				i++
				n.Send(c.policy, p[0], p[1], 8000)
			}
		})
	}
}

// line builds a 1×n chain with the given spacing: forced linear topology.
func line(n int, spacing, rng, battery float64) *Network {
	return NewGrid(n, 1, spacing, rng, battery, DefaultRadioCost())
}

func TestPolicyNames(t *testing.T) {
	for _, p := range []Policy{MinHop, MinEnergy, MaxMinBattery, Conditional} {
		if p.String() == "" {
			t.Error("missing name")
		}
	}
}

func TestRadioCostModel(t *testing.T) {
	c := DefaultRadioCost()
	// TX over 0 m = electronics only; grows with d².
	if got := c.TxEnergy(8, 0); math.Abs(got-8*50e-9) > 1e-15 {
		t.Errorf("TxEnergy(8,0) = %v", got)
	}
	if c.TxEnergy(8, 100) <= c.TxEnergy(8, 10) {
		t.Error("amplifier cost not increasing with distance")
	}
	if got := c.RxEnergy(8); math.Abs(got-8*50e-9) > 1e-15 {
		t.Errorf("RxEnergy = %v", got)
	}
}

func TestMinHopOnChain(t *testing.T) {
	// 5-node chain, range covers 2 hops: min-hop should take the long steps.
	n := line(5, 10, 25, 1)
	p := slices.Clone(n.route(MinHop, 0, 4))
	if len(p) != 3 { // 0 → 2 → 4
		t.Fatalf("path = %v, want 3 nodes", p)
	}
}

func TestMinEnergyPrefersShortHops(t *testing.T) {
	// With amplifier cost ∝ d², two 10 m hops beat one 20 m hop when
	// d² dominates: 2×(e+100p·100) vs (e+100p·400)+e.
	// Use a higher amp constant so the effect is decisive.
	cost := RadioCost{ElecJPerBit: 10e-9, AmpJPerBitM2: 1e-9}
	n := NewGrid(3, 1, 10, 25, 1, cost)
	p := slices.Clone(n.route(MinEnergy, 0, 2))
	if len(p) != 3 { // 0 → 1 → 2
		t.Fatalf("min-energy path = %v, want relaying through middle", p)
	}
	hop := slices.Clone(n.route(MinHop, 0, 2))
	if len(hop) != 2 {
		t.Fatalf("min-hop path = %v, want direct", hop)
	}
}

func TestNoPathWhenOutOfRange(t *testing.T) {
	n := line(3, 50, 25, 1) // gaps larger than range
	if p := slices.Clone(n.route(MinHop, 0, 2)); p != nil {
		t.Errorf("found impossible path %v", p)
	}
	if n.Send(MinHop, 0, 2, 1000) {
		t.Error("send succeeded without a path")
	}
	_, failed, _, _ := n.Stats()
	if failed != 1 {
		t.Errorf("failed = %d, want 1", failed)
	}
}

func TestSendDrainsBatteries(t *testing.T) {
	n := line(3, 10, 15, 1)
	before := n.Node(1).Battery
	if !n.Send(MinEnergy, 0, 2, 1e6) {
		t.Fatal("send failed")
	}
	if n.Node(1).Battery >= before {
		t.Error("relay node not drained")
	}
	delivered, _, energy, _ := n.Stats()
	if delivered != 1 || energy <= 0 {
		t.Errorf("delivered=%d energy=%v", delivered, energy)
	}
}

func TestDeadNodesExcluded(t *testing.T) {
	n := line(3, 10, 15, 1)
	n.Node(1).Battery = 0 // kill the only relay
	if p := slices.Clone(n.route(MinHop, 0, 2)); p != nil {
		t.Errorf("routed through dead node: %v", p)
	}
}

func TestMaxMinAvoidsDepletedRelay(t *testing.T) {
	// Two parallel relays; one nearly drained. Max-min must pick the
	// healthy one, min-energy is indifferent (symmetric geometry) but
	// deterministic — so force asymmetry via battery only.
	cost := DefaultRadioCost()
	net := &Network{rang: 15, cost: cost, BatteryThreshold: 0.2, firstDeathPkt: -1}
	mk := func(id int, x, y, level float64) *Node {
		nd := &Node{ID: id, X: x, Y: y, Battery: level, capacity: 1}
		net.nodes = append(net.nodes, nd)
		return nd
	}
	mk(0, 0, 0, 1)      // src
	mk(1, 10, 5, 0.9)   // healthy relay
	mk(2, 10, -5, 0.05) // depleted relay
	mk(3, 20, 0, 1)     // dst
	p := slices.Clone(net.route(MaxMinBattery, 0, 3))
	if len(p) != 3 || p[1] != 1 {
		t.Errorf("max-min path = %v, want through healthy relay 1", p)
	}
}

func TestConditionalSwitchesAtThreshold(t *testing.T) {
	// A short-hop chain (min-energy route) whose middle node drains below
	// threshold: conditional must divert to the widest path even if it is
	// longer/more expensive.
	cost := RadioCost{ElecJPerBit: 10e-9, AmpJPerBitM2: 1e-9}
	net := &Network{rang: 30, cost: cost, BatteryThreshold: 0.2, firstDeathPkt: -1}
	mk := func(id int, x, y, level float64) {
		net.nodes = append(net.nodes, &Node{ID: id, X: x, Y: y, Battery: level, capacity: 1})
	}
	mk(0, 0, 0, 1)
	mk(1, 10, 0, 1) // cheap relay, healthy for now
	mk(2, 10, 8, 1) // detour relay
	mk(3, 20, 0, 1) // dst
	p1 := slices.Clone(net.route(Conditional, 0, 3))
	if len(p1) != 3 || p1[1] != 1 {
		t.Fatalf("healthy conditional path = %v, want through 1", p1)
	}
	net.nodes[1].Battery = 0.1 // below threshold
	p2 := slices.Clone(net.route(Conditional, 0, 3))
	if len(p2) >= 3 && p2[1] == 1 {
		t.Errorf("conditional kept using depleted relay: %v", p2)
	}
}

func TestLifetimeOrderingAcrossPolicies(t *testing.T) {
	// Cross-traffic over a grid: battery-aware routing should survive
	// longer (packets before first death) than pure min-energy, which
	// hammers the cheapest relays.
	run := func(policy Policy) int {
		rng := rand.New(rand.NewSource(5))
		n := NewGrid(5, 5, 10, 15, 0.02, DefaultRadioCost())
		for i := 0; i < 40000; i++ {
			src := rng.Intn(5)              // left edge-ish
			dst := 20 + rng.Intn(5)         // right edge-ish
			n.Send(policy, src, dst, 8_000) // 1 KB packets
			if _, _, _, death := n.Stats(); death != -1 {
				return death
			}
		}
		return math.MaxInt
	}
	minEnergy := run(MinEnergy)
	maxMin := run(MaxMinBattery)
	cond := run(Conditional)
	if maxMin <= minEnergy {
		t.Errorf("max-min first death at pkt %d, min-energy %d: battery-awareness should extend it",
			maxMin, minEnergy)
	}
	if cond <= minEnergy {
		t.Errorf("conditional first death at pkt %d should beat min-energy %d", cond, minEnergy)
	}
}

func TestEnergyOrderingAcrossPolicies(t *testing.T) {
	// Min-energy routing spends the least energy per delivered packet.
	perPkt := func(policy Policy) float64 {
		rng := rand.New(rand.NewSource(7))
		n := NewGrid(5, 5, 10, 25, 10, DefaultRadioCost())
		for i := 0; i < 2000; i++ {
			n.Send(policy, rng.Intn(25), rng.Intn(25), 8_000)
		}
		delivered, _, energy, _ := n.Stats()
		if delivered == 0 {
			t.Fatal("nothing delivered")
		}
		return energy / float64(delivered)
	}
	me := perPkt(MinEnergy)
	mh := perPkt(MinHop)
	if me > mh {
		t.Errorf("min-energy %.3e J/pkt should not exceed min-hop %.3e", me, mh)
	}
}

// Property: any returned route starts at src, ends at dst, uses only alive
// nodes, respects radio range, and has no repeated nodes.
func TestRouteWellFormedProperty(t *testing.T) {
	prop := func(seed int64, policyRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := newRandom(rng, 25, 50, 18, 1, DefaultRadioCost())
		// Randomly deplete some nodes.
		for i := 0; i < 5; i++ {
			n.Node(rng.Intn(25)).Battery = 0
		}
		policy := Policy(policyRaw % 4)
		src, dst := rng.Intn(25), rng.Intn(25)
		if src == dst {
			return true
		}
		p := slices.Clone(n.route(policy, src, dst))
		if p == nil {
			return true // no path is a legal answer
		}
		if p[0] != src || p[len(p)-1] != dst {
			return false
		}
		seen := map[int]bool{}
		for i, id := range p {
			if seen[id] || !n.Node(id).Alive() {
				return false
			}
			seen[id] = true
			if i > 0 && n.dist(n.Node(p[i-1]), n.Node(id)) > n.rang+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNumAliveAndLevels(t *testing.T) {
	n := line(4, 10, 15, 1)
	if n.NumAlive() != 4 {
		t.Error("wrong alive count")
	}
	n.Node(2).Battery = 0
	if n.NumAlive() != 3 {
		t.Error("alive count after death wrong")
	}
	if n.Node(0).Level() != 1 {
		t.Error("full battery level wrong")
	}
	if n.Node(2).Level() != 0 {
		t.Error("dead battery level wrong")
	}
	if n.Size() != 4 {
		t.Error("size wrong")
	}
}

// newRandom builds a network of n nodes placed uniformly in a side×side
// square.
func newRandom(rng *rand.Rand, n int, side, radioRange, batteryJ float64, cost RadioCost) *Network {
	if n <= 0 || side <= 0 || radioRange <= 0 || batteryJ <= 0 {
		panic("route: invalid random parameters")
	}
	net := &Network{rang: radioRange, cost: cost, BatteryThreshold: 0.2, firstDeathPkt: -1}
	for i := 0; i < n; i++ {
		net.nodes = append(net.nodes, &Node{
			ID: i, X: rng.Float64() * side, Y: rng.Float64() * side,
			Battery: batteryJ, capacity: batteryJ,
		})
	}
	return net
}

// Node returns node i.
func (n *Network) Node(i int) *Node { return n.nodes[i] }
