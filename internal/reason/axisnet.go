package reason

import "cardirect/internal/calculus"

// axisNet is an Allen interval-algebra network over the per-axis projections
// of the network's variables: Get(i, j) is the AllenSet allowed between
// interval i and interval j.
type axisNet = calculus.Net[AllenRel]

func newAxisNet(n int) *axisNet { return calculus.NewNet[AllenRel](n) }

// scenarios enumerates atomic refinements (every edge a single base
// relation) of the path-consistent network, invoking yield for each; it
// stops when yield returns true. budget is decremented per atomic scenario;
// when it reaches zero ErrSearchLimit is returned.
func scenarios(a *axisNet, budget *scenarioBudget, yield func(*axisNet) bool) error {
	if !a.Propagate() {
		return nil
	}
	// Find the most constrained undecided edge.
	bi, bj, best := -1, -1, 14
	for i := 0; i < a.Len(); i++ {
		for j := i + 1; j < a.Len(); j++ {
			if l := a.Get(i, j).Len(); l > 1 && l < best {
				bi, bj, best = i, j, l
			}
		}
	}
	if bi < 0 {
		if !budget.take() {
			return ErrSearchLimit
		}
		yield(a)
		return nil
	}
	stop := false
	for _, r := range a.Get(bi, bj).Rels() {
		if stop {
			break
		}
		b := a.Clone()
		b.Set(bi, bj, AllenOf(r))
		err := scenarios(b, budget, func(s *axisNet) bool {
			stop = yield(s)
			return stop
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// realize turns an atomic scenario into concrete intervals: each base
// relation decomposes into point-order constraints between the 2n endpoint
// variables, which are totally determined in an atomic complete network;
// endpoints are assigned integer coordinates by their rank.
func realize(a *axisNet) []interval {
	n := a.Len()
	// Endpoint ids: 2v = lo(v), 2v+1 = hi(v).
	var lts, eqs [][2]int
	for v := 0; v < n; v++ {
		lts = append(lts, [2]int{2 * v, 2*v + 1})
	}
	addRel := func(i, j int, r AllenRel) {
		// Express the base relation as point constraints between
		// (lo_i, hi_i) and (lo_j, hi_j) using the canonical representatives.
		ai := allenRepr[r][0]
		bj := allenRepr[r][1]
		ends := []struct {
			id int
			v  float64
		}{
			{2 * i, ai.lo}, {2*i + 1, ai.hi}, {2 * j, bj.lo}, {2*j + 1, bj.hi},
		}
		for x := 0; x < len(ends); x++ {
			for y := 0; y < len(ends); y++ {
				if x == y {
					continue
				}
				switch {
				case ends[x].v < ends[y].v:
					lts = append(lts, [2]int{ends[x].id, ends[y].id})
				case ends[x].v == ends[y].v && ends[x].id < ends[y].id:
					eqs = append(eqs, [2]int{ends[x].id, ends[y].id})
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			rs := a.Get(i, j).Rels()
			addRel(i, j, rs[0])
		}
	}
	// Union-find over equalities.
	parent := make([]int, 2*n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range eqs {
		parent[find(e[0])] = find(e[1])
	}
	// Longest-path rank over the strict order (the atomic complete network
	// is acyclic on representatives).
	adj := make(map[int][]int)
	indeg := make(map[int]int)
	nodes := map[int]bool{}
	for i := 0; i < 2*n; i++ {
		nodes[find(i)] = true
	}
	for _, e := range lts {
		u, v := find(e[0]), find(e[1])
		if u == v {
			continue // contradictory input would show up in verification
		}
		adj[u] = append(adj[u], v)
		indeg[v]++
	}
	rank := make(map[int]int, len(nodes))
	queue := make([]int, 0, len(nodes))
	for u := range nodes {
		if indeg[u] == 0 {
			queue = append(queue, u)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if rank[u]+1 > rank[v] {
				rank[v] = rank[u] + 1
			}
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	out := make([]interval, n)
	for v := 0; v < n; v++ {
		out[v] = interval{
			lo: float64(rank[find(2*v)]),
			hi: float64(rank[find(2*v+1)]),
		}
	}
	return out
}
