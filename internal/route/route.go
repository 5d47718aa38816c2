// Package route implements the energy-efficient ad-hoc routing protocols
// the paper's link-layer survey points to: minimum-hop routing as the
// baseline, minimum-transmission-energy routing (MTPR-style), battery-aware
// max-min routing (MMBCR-style) and the conditional hybrid (CMMBCR-style)
// that uses minimum energy while every node on the path is healthy and
// switches to battery protection below a threshold.
//
// The radio cost model is the standard first-order one: transmitting b bits
// over distance d costs b·(Eelec + Eamp·d²); receiving costs b·Eelec.
//
// The first Send builds a static adjacency: the in-range neighbours of
// every node in node-index order, each edge with its per-bit link energy.
// Searches then run over it with scratch arrays and a value-typed heap owned
// by the Network, so a steady-state Send allocates nothing. Node positions
// must not change after that first Send; batteries may, including by direct
// writes to Node.Battery, and are read at search time.
//
// The route cache rests on one invariant: min-hop and min-energy paths are a
// pure function of the static geometry plus the set of alive nodes. Those
// two searches, including the min-energy leg of Conditional, are memoised
// per (objective, src, dst). Every lookup recomputes the alive set and drops
// the whole cache when it differs from the set the entries were computed
// under. Max-min battery paths depend on live battery levels and are
// searched on every call.
package route

import (
	"fmt"
	"math"
	"slices"
)

// Policy selects a path objective.
type Policy int

// Routing policies.
const (
	// MinHop minimizes hop count (energy-oblivious baseline).
	MinHop Policy = iota
	// MinEnergy minimizes total transmission+reception energy.
	MinEnergy
	// MaxMinBattery maximizes the minimum residual battery on the path.
	MaxMinBattery
	// Conditional uses MinEnergy while all nodes on that path are above
	// the battery threshold, otherwise MaxMinBattery (CMMBCR).
	Conditional
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case MinHop:
		return "min-hop"
	case MinEnergy:
		return "min-energy"
	case MaxMinBattery:
		return "max-min-battery"
	case Conditional:
		return "conditional"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// RadioCost holds the first-order radio model constants, in joules per bit.
type RadioCost struct {
	ElecJPerBit  float64 // electronics cost, paid at TX and RX
	AmpJPerBitM2 float64 // amplifier cost per square meter
}

// DefaultRadioCost returns the customary 50 nJ/bit electronics and
// 100 pJ/bit/m² amplifier constants.
func DefaultRadioCost() RadioCost {
	return RadioCost{ElecJPerBit: 50e-9, AmpJPerBitM2: 100e-12}
}

// TxEnergy returns the cost of transmitting bits over distance d.
func (r RadioCost) TxEnergy(bits int, d float64) float64 {
	return float64(float64(bits) * (r.ElecJPerBit + float64(r.AmpJPerBitM2*d*d)))
}

// RxEnergy returns the cost of receiving bits.
func (r RadioCost) RxEnergy(bits int) float64 {
	return float64(float64(bits) * r.ElecJPerBit)
}

// Node is one network participant.
type Node struct {
	ID       int
	X, Y     float64
	Battery  float64 // joules remaining
	capacity float64
}

// Alive reports whether the node has energy left.
func (n *Node) Alive() bool { return n.Battery > 0 }

// Level returns the battery fraction remaining.
func (n *Node) Level() float64 {
	if n.capacity <= 0 {
		return 0
	}
	l := n.Battery / n.capacity
	if l < 0 {
		return 0
	}
	return l
}

// Network is an ad-hoc topology with per-node batteries.
type Network struct {
	nodes []*Node
	rang  float64 // radio range, meters
	cost  RadioCost
	// BatteryThreshold is the Conditional policy's protection level.
	BatteryThreshold float64

	deliveredPkts int
	failedPkts    int
	totalEnergyJ  float64
	firstDeathPkt int // packet count at first node death, -1 while none

	g *graph // built by the first search
}

// NewGrid builds a w×h grid network with the given spacing, radio range and
// per-node battery capacity in joules.
func NewGrid(w, h int, spacing, radioRange, batteryJ float64, cost RadioCost) *Network {
	if w <= 0 || h <= 0 || spacing <= 0 || radioRange <= 0 || batteryJ <= 0 {
		panic("route: invalid grid parameters")
	}
	n := &Network{rang: radioRange, cost: cost, BatteryThreshold: 0.2, firstDeathPkt: -1}
	id := 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			n.nodes = append(n.nodes, &Node{
				ID: id, X: float64(x) * spacing, Y: float64(y) * spacing,
				Battery: batteryJ, capacity: batteryJ,
			})
			id++
		}
	}
	return n
}

// Size returns the node count.
func (n *Network) Size() int { return len(n.nodes) }

// NumAlive counts nodes with energy.
func (n *Network) NumAlive() int {
	alive := 0
	for _, nd := range n.nodes {
		if nd.Alive() {
			alive++
		}
	}
	return alive
}

// Stats returns delivery and energy counters: delivered and failed packet
// counts, total energy spent, packet count at first death (-1 if none).
func (n *Network) Stats() (delivered, failed int, energyJ float64, firstDeathPkt int) {
	return n.deliveredPkts, n.failedPkts, n.totalEnergyJ, n.firstDeathPkt
}

func (n *Network) dist(a, b *Node) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return math.Sqrt(float64(dx*dx) + float64(dy*dy))
}

// route computes a path from src to dst under the policy, or nil when no
// path exists among alive nodes. The path aliases the route cache or the
// search scratch and is valid until the next search.
func (n *Network) route(policy Policy, src, dst int) []int {
	s, d := n.nodes[src], n.nodes[dst]
	if !s.Alive() || !d.Alive() {
		return nil
	}
	n.build()
	switch policy {
	case MinHop:
		return n.cached(false, src, dst)
	case MinEnergy:
		return n.cached(true, src, dst)
	case MaxMinBattery:
		return n.widest(src, dst)
	case Conditional:
		p := n.cached(true, src, dst)
		if p == nil {
			return nil
		}
		for _, id := range p {
			if n.nodes[id].Level() < n.BatteryThreshold {
				return n.widest(src, dst)
			}
		}
		return p
	default:
		panic(fmt.Sprintf("route: unknown policy %d", int(policy)))
	}
}

// Send routes one packet of the given bit count and drains energy along the
// path. It reports whether delivery succeeded.
func (n *Network) Send(policy Policy, src, dst, bits int) bool {
	path := n.route(policy, src, dst)
	if path == nil {
		n.failedPkts++
		return false
	}
	for i := 0; i+1 < len(path); i++ {
		a, b := n.nodes[path[i]], n.nodes[path[i+1]]
		d := n.dist(a, b)
		tx := n.cost.TxEnergy(bits, d)
		rx := n.cost.RxEnergy(bits)
		n.drain(a, tx)
		n.drain(b, rx)
		n.totalEnergyJ += tx + rx
	}
	n.deliveredPkts++
	return true
}

func (n *Network) drain(nd *Node, j float64) {
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

// --- shortest path machinery ---

// graph is the static adjacency in CSR form plus the state every search
// reuses.
type graph struct {
	start  []int     // node u's edges are start[u]:start[u+1]
	to     []int     // edge heads, ascending per tail
	energy []float64 // per-bit link energy: TX at the tail + RX at the head

	dist    []float64 // cost (dijkstra) or bottleneck width (widest)
	prev    []int
	visited []bool
	q       pq
	path    []int // unwind buffer

	alive []uint64     // alive set the cache entries were computed under
	cache []cacheEntry // [2][N][N]: objective (min-energy?), src, dst; O(N²) memory
}

type cacheEntry struct {
	ok   bool
	path []int // empty: no path
}

// build constructs the adjacency and the scratch on the first search.
func (n *Network) build() {
	if n.g != nil {
		return
	}
	size := len(n.nodes)
	g := &graph{
		start:   make([]int, size+1),
		dist:    make([]float64, size),
		prev:    make([]int, size),
		visited: make([]bool, size),
		path:    make([]int, 0, size),
		alive:   make([]uint64, (size+63)/64),
		cache:   make([]cacheEntry, 2*size*size),
	}
	for u, a := range n.nodes {
		for v, b := range n.nodes {
			if v == u {
				continue
			}
			if d := n.dist(a, b); d <= n.rang {
				g.to = append(g.to, v)
				g.energy = append(g.energy, n.cost.TxEnergy(1, d)+n.cost.RxEnergy(1))
			}
		}
		g.start[u+1] = len(g.to)
	}
	// A search relaxes each edge at most once, so it pushes at most once
	// per edge plus the source.
	g.q.items = make([]pqItem, 0, len(g.to)+1)
	n.g = g
}

// cached returns the memoised min-hop or min-energy path, searching and
// storing it when the entry is missing.
func (n *Network) cached(energy bool, src, dst int) []int {
	n.syncAlive()
	size := len(n.nodes)
	k := src*size + dst
	if energy {
		k += size * size
	}
	e := &n.g.cache[k]
	if !e.ok {
		e.ok = true
		e.path = append(e.path[:0], n.dijkstra(src, dst, energy)...)
	}
	if len(e.path) == 0 {
		return nil
	}
	return e.path
}

// syncAlive recomputes the alive bitset and invalidates every cache entry
// when it differs from the one the entries were computed under.
func (n *Network) syncAlive() {
	g := n.g
	changed := false
	for w := range g.alive {
		var bits uint64
		for i, nd := range n.nodes[w*64 : min(len(n.nodes), (w+1)*64)] {
			if nd.Alive() {
				bits |= 1 << i
			}
		}
		if bits != g.alive[w] {
			g.alive[w] = bits
			changed = true
		}
	}
	if changed {
		for i := range g.cache {
			g.cache[i].ok = false
		}
	}
}

type pqItem struct {
	id   int
	prio float64
}

// pq is a binary heap of values whose push and pop sift exactly as
// container/heap's do, so equal-priority entries pop in the same order.
type pq struct {
	items []pqItem
	max   bool // max-heap for widest path
}

func (q *pq) less(i, j int) bool {
	if q.max {
		return q.items[i].prio > q.items[j].prio
	}
	return q.items[i].prio < q.items[j].prio
}

func (q *pq) push(id int, prio float64) {
	q.items = append(q.items, pqItem{id: id, prio: prio})
	j := len(q.items) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !q.less(j, i) {
			break
		}
		q.items[i], q.items[j] = q.items[j], q.items[i]
		j = i
	}
}

func (q *pq) pop() int {
	n := len(q.items) - 1
	q.items[0], q.items[n] = q.items[n], q.items[0]
	i := 0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q.less(j2, j) {
			j = j2 // right child
		}
		if !q.less(j, i) {
			break
		}
		q.items[i], q.items[j] = q.items[j], q.items[i]
		i = j
	}
	id := q.items[n].id
	q.items = q.items[:n]
	return id
}

// reset prepares the scratch for a search whose unreached value is unset.
func (g *graph) reset(unset float64, maxHeap bool) {
	for i := range g.dist {
		g.dist[i] = unset
		g.prev[i] = -1
		g.visited[i] = false
	}
	g.q.items = g.q.items[:0]
	g.q.max = maxHeap
}

// dijkstra finds the min-cost path under unit (min-hop) or link-energy
// edge weights.
func (n *Network) dijkstra(src, dst int, energy bool) []int {
	const inf = math.MaxFloat64
	g := n.g
	g.reset(inf, false)
	g.dist[src] = 0
	g.q.push(src, 0)
	for len(g.q.items) > 0 {
		u := g.q.pop()
		if g.visited[u] {
			continue
		}
		g.visited[u] = true
		if u == dst {
			break
		}
		for e := g.start[u]; e < g.start[u+1]; e++ {
			v := g.to[e]
			if !n.nodes[v].Alive() {
				continue
			}
			w := 1.0
			if energy {
				w = g.energy[e]
			}
			if nd := g.dist[u] + w; nd < g.dist[v] {
				g.dist[v] = nd
				g.prev[v] = u
				g.q.push(v, nd)
			}
		}
	}
	if g.dist[dst] == inf {
		return nil
	}
	return g.unwind(src, dst)
}

// widest finds the path maximizing the minimum battery level of
// intermediate and endpoint nodes (bottleneck shortest path).
func (n *Network) widest(src, dst int) []int {
	g := n.g
	g.reset(-1, true)
	g.dist[src] = n.nodes[src].Level()
	g.q.push(src, g.dist[src])
	for len(g.q.items) > 0 {
		u := g.q.pop()
		if g.visited[u] {
			continue
		}
		g.visited[u] = true
		if u == dst {
			break
		}
		for e := g.start[u]; e < g.start[u+1]; e++ {
			v := g.to[e]
			b := n.nodes[v]
			if !b.Alive() {
				continue
			}
			if w := math.Min(g.dist[u], b.Level()); w > g.dist[v] {
				g.dist[v] = w
				g.prev[v] = u
				g.q.push(v, w)
			}
		}
	}
	if g.dist[dst] < 0 {
		return nil
	}
	return g.unwind(src, dst)
}

// unwind writes the src→dst path recorded in prev into the unwind buffer.
func (g *graph) unwind(src, dst int) []int {
	p := g.path[:0]
	for at := dst; at != -1; at = g.prev[at] {
		p = append(p, at)
		if at == src {
			break
		}
	}
	if p[len(p)-1] != src {
		return nil
	}
	slices.Reverse(p)
	g.path = p
	return p
}
