package experiments

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"cardirect/internal/baseline"
	"cardirect/internal/config"
	"cardirect/internal/core"
	"cardirect/internal/experiments/clip"
	"cardirect/internal/geom"
	"cardirect/internal/index"
	"cardirect/internal/query"
	"cardirect/internal/reason"
	"cardirect/internal/topo"
	"cardirect/internal/workload"
)

// Options scales the experiment suite.
type Options struct {
	// Quick shrinks workload sizes for fast runs.
	Quick bool
	// Seed drives every synthetic workload.
	Seed int64
}

// sizes returns the edge-count sweep for the scaling experiments.
func (o Options) sizes() []int {
	if o.Quick {
		return []int{64, 256, 1024}
	}
	return []int{64, 256, 1024, 4096, 16384, 65536}
}

func (o Options) pairCount() int {
	if o.Quick {
		return 200
	}
	return 2000
}

// Report is one experiment's printable result. Metrics carries the headline
// numbers in machine-readable form for the tests that assert floors on them;
// it is nil for purely qualitative experiments.
type Report struct {
	ID      string
	Title   string
	Body    string
	Metrics map[string]float64
}

// bench runs f in a testing benchmark and reports ns/op.
func bench(f func()) float64 {
	ns, _ := benchmem(f)
	return ns
}

// benchmem runs f in a testing benchmark and reports ns/op and allocs/op.
func benchmem(f func()) (nsPerOp, allocsPerOp float64) {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f()
		}
	})
	return float64(r.NsPerOp()), float64(r.AllocsPerOp())
}

// E1E2E3EdgeCounts reproduces the paper's edge-inflation comparisons
// (Fig. 3b, Fig. 3c, Example 3): edges each method ends with.
func E1E2E3EdgeCounts() (Report, error) {
	b := RefRegion()
	fixtures := []struct {
		name string
		a    geom.Region
	}{
		{"Fig3b quadrangle (E1)", Fig3bSquare()},
		{"Fig3c triangle (E2)", Fig3cTriangle()},
		{"Example3 quadrangle (E3)", Example3Quadrangle()},
	}
	rows := make([][]string, 0, len(fixtures))
	for _, f := range fixtures {
		ec, err := MeasureEdgeCounts(f.name, f.a, b)
		if err != nil {
			return Report{}, err
		}
		rows = append(rows, []string{
			f.name,
			fmt.Sprint(ec.EdgesIn),
			fmt.Sprint(ec.CDREdges),
			fmt.Sprint(ec.ClipEdges),
			fmt.Sprint(ec.ClipPieces),
			ec.Relation.String(),
		})
	}
	body := Table(
		[]string{"fixture", "edges in", "Compute-CDR edges", "clipping edges", "clip pieces", "relation"},
		rows,
	)
	body += "\npaper: 4→8 vs 16 (Fig 3b), 3→11 vs 35 (Fig 3c), 4→9 vs 19-introduced (Example 3)\n"
	return Report{ID: "E1-E3", Title: "Edge inflation: Compute-CDR vs polygon clipping", Body: body}, nil
}

// E4E5Scaling verifies the linear-time claims of Theorems 1 and 2: ns/edge
// must stay flat as the edge count grows.
func E4E5Scaling(o Options) (Report, error) {
	g := workload.New(o.Seed)
	cases := g.ScalingSweep(o.sizes())
	rows := make([][]string, 0, len(cases))
	for _, c := range cases {
		nsCDR := bench(func() {
			if _, err := core.ComputeCDR(c.A, c.B); err != nil {
				panic(err)
			}
		})
		nsPct := bench(func() {
			if _, _, err := core.ComputeCDRPct(c.A, c.B); err != nil {
				panic(err)
			}
		})
		rows = append(rows, []string{
			fmt.Sprint(c.Edges),
			fmt.Sprintf("%.0f", nsCDR),
			fmt.Sprintf("%.2f", nsCDR/float64(c.Edges)),
			fmt.Sprintf("%.0f", nsPct),
			fmt.Sprintf("%.2f", nsPct/float64(c.Edges)),
		})
	}
	body := Table(
		[]string{"edges", "Compute-CDR ns", "ns/edge (E4)", "Compute-CDR% ns", "ns/edge (E5)"},
		rows,
	)
	body += "\npaper: both algorithms are O(k_a + k_b) — ns/edge should be near-constant\n"
	return Report{ID: "E4-E5", Title: "Linear scaling of Compute-CDR and Compute-CDR%", Body: body}, nil
}

// E6E7VsClipping runs the paper's future-work experiment: single-pass
// algorithms versus nine-tile clipping, time per computation.
func E6E7VsClipping(o Options) (Report, error) {
	g := workload.New(o.Seed)
	cases := g.ScalingSweep(o.sizes())
	rows := make([][]string, 0, len(cases))
	for _, c := range cases {
		nsCDR := bench(func() { core.ComputeCDR(c.A, c.B) })
		nsClip := bench(func() { clip.ComputeCDR(c.A, c.B) })
		nsPct := bench(func() { core.ComputeCDRPct(c.A, c.B) })
		nsClipPct := bench(func() { clip.ComputeCDRPct(c.A, c.B) })
		rows = append(rows, []string{
			fmt.Sprint(c.Edges),
			fmt.Sprintf("%.0f", nsCDR),
			fmt.Sprintf("%.0f", nsClip),
			fmt.Sprintf("%.2fx", nsClip/nsCDR),
			fmt.Sprintf("%.0f", nsPct),
			fmt.Sprintf("%.0f", nsClipPct),
			fmt.Sprintf("%.2fx", nsClipPct/nsPct),
		})
	}
	body := Table(
		[]string{"edges", "CDR ns", "clip ns", "speedup (E6)", "CDR% ns", "clip% ns", "speedup (E7)"},
		rows,
	)
	body += "\npaper: clipping scans edges 9x and inflates them — Compute-CDR should win\n"
	return Report{ID: "E6-E7", Title: "Compute-CDR(%) vs polygon-clipping baselines", Body: body}, nil
}

// E8ScanCounts verifies the single-pass claim with instrumented counters.
func E8ScanCounts(o Options) (Report, error) {
	g := workload.New(o.Seed)
	c := g.ScalingSweep([]int{1024})[0]
	_, stCDR, err := core.ComputeCDRStats(c.A, c.B)
	if err != nil {
		return Report{}, err
	}
	_, stClip, err := clip.ComputeCDRStats(c.A, c.B)
	if err != nil {
		return Report{}, err
	}
	rows := [][]string{
		{"Compute-CDR", fmt.Sprint(stCDR.Passes), fmt.Sprint(stCDR.EdgeVisits), fmt.Sprint(stCDR.EdgesOut)},
		{"clipping", fmt.Sprint(stClip.Passes), fmt.Sprint(stClip.EdgeVisits), fmt.Sprint(stClip.EdgesOut)},
	}
	body := Table([]string{"method", "passes", "edge visits", "edges out"}, rows)
	body += fmt.Sprintf("\n1024-edge primary: clipping visits edges %dx more often (paper: 9 scans vs 1)\n",
		stClip.EdgeVisits/stCDR.EdgeVisits)
	return Report{ID: "E8", Title: "Single pass vs nine passes", Body: body}, nil
}

// E9Greece reproduces the Fig. 11/12 configuration outputs.
func E9Greece() (Report, error) {
	img := config.Greece()
	pelop := img.FindRegion("peloponnesos").Geometry()
	attica := img.FindRegion("attica").Geometry()
	rel, err := core.ComputeCDR(pelop, attica)
	if err != nil {
		return Report{}, err
	}
	back, err := core.ComputeCDR(attica, pelop)
	if err != nil {
		return Report{}, err
	}
	m, _, err := core.ComputeCDRPct(attica, pelop)
	if err != nil {
		return Report{}, err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Peloponnesos vs Attica: %v   (paper Fig. 12: B:S:SW:W)\n", rel)
	fmt.Fprintf(&sb, "Attica vs Peloponnesos: %v\n", back)
	fmt.Fprintf(&sb, "Attica %% matrix w.r.t. Peloponnesos:\n%v\n", m)
	return Report{ID: "E9", Title: "Peloponnesian-war configuration (Fig. 11/12)", Body: sb.String()}, nil
}

// E10Inverse times and summarises the inverse operation over all of D*.
func E10Inverse() (Report, error) {
	total := 0
	minLen, maxLen := 1<<30, 0
	for _, r := range core.AllRelations() {
		n := reason.Inverse(r).Len()
		total += n
		if n < minLen {
			minLen = n
		}
		if n > maxLen {
			maxLen = n
		}
	}
	ns := bench(func() { reason.Inverse(core.S) })
	var sb strings.Builder
	fmt.Fprintf(&sb, "inverse computed for all 511 relations: avg |inv| = %.1f, min %d, max %d\n",
		float64(total)/511, minLen, maxLen)
	fmt.Fprintf(&sb, "inv(S) = %v\n", reason.Inverse(core.S))
	fmt.Fprintf(&sb, "time per inverse: %.0f ns\n", ns)
	return Report{ID: "E10", Title: "Inverse of cardinal direction relations", Body: sb.String()}, nil
}

// E11Composition times composition and reports its tightness against
// Monte-Carlo observations.
func E11Composition(o Options) (Report, error) {
	g := workload.New(o.Seed)
	ns := bench(func() { reason.Composition(core.N, core.S) })
	// Soundness sample.
	n := o.pairCount() / 4
	sound := 0
	for i := 0; i < n; i++ {
		a := geom.Rgn(g.StarPolygon(float64(i%17)-8, float64(i%11)-5, 1, 4, 6))
		b := geom.Rgn(g.StarPolygon(float64(i%13)-6, float64(i%7)-3, 1, 4, 6))
		c := geom.Rgn(g.StarPolygon(float64(i%19)-9, float64(i%5)-2, 1, 4, 6))
		r1, err := core.ComputeCDR(a, b)
		if err != nil {
			return Report{}, err
		}
		r2, err := core.ComputeCDR(b, c)
		if err != nil {
			return Report{}, err
		}
		r3, err := core.ComputeCDR(a, c)
		if err != nil {
			return Report{}, err
		}
		if reason.Composition(r1, r2).Contains(r3) {
			sound++
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "comp(N, S) = %d relations; comp(SW, SW) = %v\n",
		reason.Composition(core.N, core.S).Len(), reason.Composition(core.SW, core.SW))
	fmt.Fprintf(&sb, "Monte-Carlo soundness: %d/%d observed relations contained\n", sound, n)
	fmt.Fprintf(&sb, "time per composition: %.0f ns\n", ns)
	return Report{ID: "E11", Title: "Composition of cardinal direction relations", Body: sb.String()}, nil
}

// E12Consistency times the network solver on satisfiable and unsatisfiable
// fixtures.
func E12Consistency() (Report, error) {
	mk := func(build func(*reason.Network)) (bool, float64, error) {
		var sat bool
		var solveErr error
		ns := bench(func() {
			n := reason.NewNetwork()
			build(n)
			w, err := n.Solve(reason.SolveOptions{})
			if err != nil {
				solveErr = err
			}
			sat = w != nil
		})
		return sat, ns, solveErr
	}
	rows := [][]string{}
	cases := []struct {
		name  string
		build func(*reason.Network)
		want  bool
	}{
		{"chain a N b N c", func(n *reason.Network) {
			n.ConstrainRel("a", "b", core.N)
			n.ConstrainRel("b", "c", core.N)
		}, true},
		{"cycle a N b N c N a", func(n *reason.Network) {
			n.ConstrainRel("a", "b", core.N)
			n.ConstrainRel("b", "c", core.N)
			n.ConstrainRel("c", "a", core.N)
		}, false},
		{"disjunctive forcing", func(n *reason.Network) {
			n.Constrain("a", "b", core.NewRelationSet(core.N, core.S))
			n.ConstrainRel("b", "a", core.N)
		}, true},
		{"surround + side", func(n *reason.Network) {
			r, _ := core.ParseRelation("S:SW:W:NW:N:NE:E:SE")
			n.ConstrainRel("ring", "core", r)
			n.ConstrainRel("east", "core", core.E)
		}, true},
	}
	for _, c := range cases {
		sat, ns, err := mk(c.build)
		if err != nil {
			return Report{}, err
		}
		status := "UNSAT"
		if sat {
			status = "SAT"
		}
		okStr := "ok"
		if sat != c.want {
			okStr = "WRONG"
		}
		rows = append(rows, []string{c.name, status, okStr, fmt.Sprintf("%.0f", ns)})
	}
	body := Table([]string{"network", "result", "expected?", "ns/solve"}, rows)
	return Report{ID: "E12", Title: "Consistency of constraint networks", Body: body}, nil
}

// E13Query times the paper's example query over the Greece configuration and
// a larger synthetic configuration.
func E13Query(o Options) (Report, error) {
	img := config.Greece()
	ev, err := query.NewEvaluator(img)
	if err != nil {
		return Report{}, err
	}
	const paperQuery = "q(a, b) :- color(a) = red, color(b) = blue, a S:SW:W:NW:N:NE:E:SE b"
	answers, err := ev.EvalString(paperQuery)
	if err != nil {
		return Report{}, err
	}
	nsGreece := bench(func() {
		e2, _ := query.NewEvaluator(img)
		e2.EvalString(paperQuery)
	})
	// Synthetic: 36 regions.
	nRegions := 16
	if !o.Quick {
		nRegions = 36
	}
	g := workload.New(o.Seed)
	syn := &config.Image{Name: "synthetic"}
	colors := []string{"red", "blue"}
	side := 1
	for side*side < nRegions {
		side++
	}
	for i := 0; i < nRegions; i++ {
		r := config.Region{ID: fmt.Sprintf("r%02d", i), Color: colors[i%2]}
		cx := float64(i%side) * 10
		cy := float64(i/side) * 10
		r.SetGeometry(geom.Rgn(g.StarPolygon(cx, cy, 1, 4, 8)))
		syn.Regions = append(syn.Regions, r)
	}
	evSyn, err := query.NewEvaluator(syn)
	if err != nil {
		return Report{}, err
	}
	const synQuery = "q(a, b) :- color(a) = red, color(b) = blue, a {SW, S:SW, SW:W} b"
	warm := bench(func() { evSyn.EvalString(synQuery) })
	var sb strings.Builder
	fmt.Fprintf(&sb, "paper query over Greece: %d answer(s): %v\n", len(answers), answers)
	fmt.Fprintf(&sb, "cold evaluator+query (Greece, 11 regions): %.0f ns\n", nsGreece)
	fmt.Fprintf(&sb, "warm query (%d synthetic regions): %.0f ns\n", nRegions, warm)
	return Report{ID: "E13", Title: "Query evaluation (the paper's §4 example)", Body: sb.String()}, nil
}

// E14Expressiveness measures how often the coarse prior-art models disagree
// with the exact tile model on random pairs.
func E14Expressiveness(o Options) (Report, error) {
	g := workload.New(o.Seed)
	pairs := g.Pairs(o.pairCount(), 10)
	var mbbCounts, coneCounts [3]int
	for _, p := range pairs {
		exact, err := core.ComputeCDR(p.A, p.B)
		if err != nil {
			return Report{}, err
		}
		mr, err := baseline.MBB(p.A, p.B)
		if err != nil {
			return Report{}, err
		}
		mbbCounts[baseline.CompareMBB(mr, exact)]++
		coneCounts[CompareCone(CentroidCone(p.A, p.B, 0), exact)]++
	}
	n := float64(len(pairs))
	pct := func(c int) string { return fmt.Sprintf("%.1f%%", 100*float64(c)/n) }
	rows := [][]string{
		{"MBB approximation", pct(mbbCounts[0]), pct(mbbCounts[1]), pct(mbbCounts[2])},
		{"centroid cone", pct(coneCounts[0]), pct(coneCounts[1]), pct(coneCounts[2])},
	}
	body := Table([]string{"model", "exact", "subsumed (info loss)", "contradicts"}, rows)
	body += fmt.Sprintf("\n%d random pairs; the paper's model is the ground truth\n", len(pairs))
	return Report{ID: "E14", Title: "Expressiveness vs point/MBB approximations", Body: body}, nil
}

// E15OpCounts compares intersection-point computations (the costly
// floating-point divisions §3 mentions) between the methods.
func E15OpCounts(o Options) (Report, error) {
	g := workload.New(o.Seed)
	rows := [][]string{}
	for _, c := range g.ScalingSweep([]int{16, 256, 4096}) {
		_, stCDR, err := core.ComputeCDRStats(c.A, c.B)
		if err != nil {
			return Report{}, err
		}
		_, stClip, err := clip.ComputeCDRStats(c.A, c.B)
		if err != nil {
			return Report{}, err
		}
		rows = append(rows, []string{
			fmt.Sprint(c.Edges),
			fmt.Sprint(stCDR.Intersections),
			fmt.Sprint(stClip.Intersections),
			fmt.Sprintf("%.2fx", float64(stClip.Intersections)/float64(maxi(1, stCDR.Intersections))),
		})
	}
	body := Table([]string{"edges", "CDR intersections", "clip intersections", "ratio"}, rows)
	body += "\npaper: clipping 'sometimes requires complex floating point operations which are costly'\n"
	return Report{ID: "E15", Title: "Intersection computations per run", Body: body}, nil
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// E17CombinedRelations runs the paper's future-work item 2 — combining
// cardinal directions with topological (RCC-8) and qualitative distance
// relations — over the Fig. 11 configuration: one row per interesting pair
// with all three vocabularies side by side.
func E17CombinedRelations() (Report, error) {
	img := config.Greece()
	pairs := [][2]string{
		{"peloponnesos", "attica"},
		{"peloponnesos", "pylos"},
		{"beotia", "attica"},
		{"crete", "peloponnesos"},
		{"islands", "attica"},
		{"macedonia", "attica"},
		{"sicily", "south-italy"},
	}
	rows := make([][]string, 0, len(pairs))
	for _, pr := range pairs {
		a := img.FindRegion(pr[0]).Geometry()
		b := img.FindRegion(pr[1]).Geometry()
		dir, err := core.ComputeCDR(a, b)
		if err != nil {
			return Report{}, err
		}
		rows = append(rows, []string{
			pr[0], pr[1],
			dir.String(),
			topo.Classify(a, b, 0).String(),
			topo.ClassifyDistance(a, b).String(),
			fmt.Sprintf("%.3f", topo.MinDistance(a, b)),
		})
	}
	body := Table(
		[]string{"primary", "reference", "direction", "RCC-8", "distance", "min dist"},
		rows,
	)
	body += "\nthe paper's §5 item 2, realised: all three vocabularies over one configuration\n"
	return Report{ID: "E17", Title: "Directions + topology + distance (future work #2)", Body: body}, nil
}

// E16IndexedSelection measures the extension experiment: R-tree-accelerated
// directional selection (the execution plan of a spatial DBMS per the
// paper's reference [13]) versus the naive per-candidate scan.
func E16IndexedSelection(o Options) (Report, error) {
	g := workload.New(o.Seed)
	nRegions := 400
	if !o.Quick {
		nRegions = 2500
	}
	side := 1
	for side*side < nRegions {
		side++
	}
	geoms := map[string]geom.Region{}
	items := make([]index.Item, 0, nRegions)
	for i := 0; i < nRegions; i++ {
		cx := float64(i%side) * 12
		cy := float64(i/side) * 12
		r := geom.Rgn(g.StarPolygon(cx, cy, 1, 4, 8))
		id := fmt.Sprintf("r%05d", i)
		geoms[id] = r
		items = append(items, index.Item{Box: r.BoundingBox(), ID: id})
	}
	tree, err := index.BulkLoad(items)
	if err != nil {
		return Report{}, err
	}
	mid := float64(side) * 6
	ref := workload.BoxRegion(mid-4, mid-4, mid+4, mid+4)
	allowed := core.NewRelationSet(core.SW, core.Rel(core.TileS, core.TileSW))

	indexed, err := index.DirectionalSelect(tree, geoms, ref, allowed)
	if err != nil {
		return Report{}, err
	}
	nsIndexed := bench(func() {
		if _, err := index.DirectionalSelect(tree, geoms, ref, allowed); err != nil {
			panic(err)
		}
	})
	nsNaive := bench(func() {
		for _, r := range geoms {
			rel, err := core.ComputeCDR(r, ref)
			if err != nil {
				panic(err)
			}
			_ = allowed.Contains(rel)
		}
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d regions, allowed = %v: %d match\n", nRegions, allowed, len(indexed))
	fmt.Fprintf(&sb, "indexed plan: %.0f ns;  naive scan: %.0f ns;  speedup %.2fx\n",
		nsIndexed, nsNaive, nsNaive/nsIndexed)
	return Report{ID: "E16", Title: "R-tree-accelerated directional selection (extension)", Body: sb.String()}, nil
}

// E18BatchScaling measures the all-pairs batch engine — CARDIRECT's bulk
// (re)annotation, and the relation-matrix builder consistency-checking
// workloads consume. Three configurations over a region-count × edge-count
// sweep: the sequential full-splitting path (every pair pays SplitEdge),
// the MBB-pruned path (box-separable and box-contained pairs answered with
// zero splits), and the pruned path on the GOMAXPROCS worker pool. A
// worker-count sweep on the largest workload shows how the pool scales.
func E18BatchScaling(o Options) (Report, error) {
	g := workload.New(o.Seed)
	type cfg struct{ regions, edges int }
	cfgs := []cfg{{50, 8}, {100, 8}, {200, 8}}
	if !o.Quick {
		cfgs = append(cfgs, cfg{200, 32}, cfg{400, 8})
	}
	named := func(n, edges int) []core.NamedRegion {
		scattered := g.Scatter(n, edges)
		out := make([]core.NamedRegion, n)
		for i, r := range scattered {
			out[i] = core.NamedRegion{Name: fmt.Sprintf("r%04d", i), Region: r}
		}
		return out
	}
	run := func(regions []core.NamedRegion, opt core.BatchOptions) float64 {
		return bench(func() {
			if _, err := core.BatchCDR(nil, regions, &opt); err != nil {
				panic(err)
			}
		})
	}
	rows := make([][]string, 0, len(cfgs))
	var largest []core.NamedRegion
	for _, c := range cfgs {
		regions := named(c.regions, c.edges)
		largest = regions
		nsSeq := run(regions, core.BatchOptions{Workers: 1, NoPrune: true})
		nsPruned := run(regions, core.BatchOptions{Workers: 1})
		nsPar := run(regions, core.BatchOptions{})
		res, err := core.BatchCDR(nil, regions, &core.BatchOptions{Workers: 1})
		if err != nil {
			return Report{}, err
		}
		pairs := c.regions * (c.regions - 1)
		pruned := res.Stats.PruneSingleTile + res.Stats.PruneBand
		rows = append(rows, []string{
			fmt.Sprintf("%d×%d", c.regions, c.edges),
			fmt.Sprint(pairs),
			fmt.Sprintf("%.2f", nsSeq/1e6),
			fmt.Sprintf("%.2f", nsPruned/1e6),
			fmt.Sprintf("%.2f", nsPar/1e6),
			fmt.Sprintf("%.1f%%", 100*float64(pruned)/float64(pairs)),
			fmt.Sprintf("%.2fx", nsSeq/nsPruned),
			fmt.Sprintf("%.2fx", nsSeq/nsPar),
		})
	}
	body := Table(
		[]string{"regions×edges", "pairs", "seq ms", "pruned ms", "parallel ms", "prune hits", "prune speedup", "total speedup"},
		rows,
	)
	// Worker-count sweep on the largest workload, pruning enabled.
	maxProcs := runtime.GOMAXPROCS(0)
	counts := []int{1, 2, 4}
	if maxProcs > 4 {
		counts = append(counts, maxProcs)
	}
	base := run(largest, core.BatchOptions{Workers: 1})
	wrows := make([][]string, 0, len(counts))
	for _, w := range counts {
		ns := run(largest, core.BatchOptions{Workers: w})
		wrows = append(wrows, []string{
			fmt.Sprint(w),
			fmt.Sprintf("%.2f", ns/1e6),
			fmt.Sprintf("%.2fx", base/ns),
		})
	}
	body += "\nworker-count sweep (" + fmt.Sprintf("%d regions, GOMAXPROCS=%d", len(largest), maxProcs) + "):\n"
	body += Table([]string{"workers", "ms", "speedup vs 1 worker"}, wrows)
	body += "\nthe prune and pool compose: pruned+parallel is the production path (BatchCDR)\n"
	return Report{ID: "E18", Title: "All-pairs batch engine: MBB pruning × worker pool", Body: body}, nil
}

// E19PctBatchAndQueryPruning measures the two halves of the zero-allocation
// quantitative engine. First the all-pairs percent batch: naive pairwise
// ComputeCDRPct (grids and edge tables rebuilt per pair) versus the prepared
// batch engine, pruned and parallel, on scatter and clustered workloads,
// with the cached-area fast-path hit rate. Then the R-tree query plan:
// DirectionalSelectStats candidate counts versus the naive full scan on
// growing scatter worlds.
func E19PctBatchAndQueryPruning(o Options) (Report, error) {
	g := workload.New(o.Seed)
	metrics := map[string]float64{}
	n := 100
	if o.Quick {
		n = 50
	}
	named := func(prefix string, rs []geom.Region) []core.NamedRegion {
		out := make([]core.NamedRegion, len(rs))
		for i, r := range rs {
			out[i] = core.NamedRegion{Name: fmt.Sprintf("%s%04d", prefix, i), Region: r}
		}
		return out
	}
	cfgs := []struct {
		name    string
		regions []core.NamedRegion
	}{
		{"scatter", named("s", g.Scatter(n, 8))},
		{"cluster", named("c", g.Cluster(n, n/8, 8))},
	}
	rows := make([][]string, 0, len(cfgs))
	for _, c := range cfgs {
		nsNaive := bench(func() {
			for _, a := range c.regions {
				for _, b := range c.regions {
					if a.Name == b.Name {
						continue
					}
					if _, _, err := core.ComputeCDRPct(a.Region, b.Region); err != nil {
						panic(err)
					}
				}
			}
		})
		nsPruned, allocsPruned := benchmem(func() {
			if _, err := core.BatchPct(nil, c.regions, &core.BatchOptions{Workers: 1}); err != nil {
				panic(err)
			}
		})
		nsPar := bench(func() {
			if _, err := core.BatchPct(nil, c.regions, nil); err != nil {
				panic(err)
			}
		})
		res, err := core.BatchPct(nil, c.regions, &core.BatchOptions{Workers: 1})
		if err != nil {
			return Report{}, err
		}
		pairs := len(c.regions) * (len(c.regions) - 1)
		pruneRate := 100 * float64(res.Stats.PrunePctTile+res.Stats.PrunePctPoly) / float64(pairs)
		rows = append(rows, []string{
			fmt.Sprintf("%s %d×8", c.name, len(c.regions)),
			fmt.Sprintf("%.2f", nsNaive/1e6),
			fmt.Sprintf("%.2f", nsPruned/1e6),
			fmt.Sprintf("%.2f", nsPar/1e6),
			fmt.Sprintf("%.1f%%", pruneRate),
			fmt.Sprintf("%.2fx", nsNaive/nsPruned),
			fmt.Sprintf("%.2fx", nsNaive/nsPar),
		})
		metrics["pct_naive_ms_"+c.name] = nsNaive / 1e6
		metrics["pct_pruned_ms_"+c.name] = nsPruned / 1e6
		metrics["pct_parallel_ms_"+c.name] = nsPar / 1e6
		metrics["pct_batch_allocs_"+c.name] = allocsPruned
		metrics["pct_prune_rate_"+c.name] = pruneRate
		metrics["pct_speedup_"+c.name] = nsNaive / nsPar
	}
	body := "all-pairs Compute-CDR% (naive pairwise vs prepared batch engine):\n"
	body += Table(
		[]string{"workload", "naive ms", "pruned ms", "parallel ms", "fast-path hits", "pruned speedup", "total speedup"},
		rows,
	)

	// Per-pair steady state: RelatePct allocates nothing; the naive call
	// pays the full per-pair setup.
	ps, err := core.PrepareAll(cfgs[0].regions[:2])
	if err != nil {
		return Report{}, err
	}
	if _, _, err := core.RelatePct(ps[0], ps[1], nil); err != nil {
		return Report{}, err
	}
	nsPair, allocsPair := benchmem(func() {
		if _, _, err := core.RelatePct(ps[0], ps[1], nil); err != nil {
			panic(err)
		}
	})
	nsPairNaive, allocsPairNaive := benchmem(func() {
		if _, _, err := core.ComputeCDRPct(cfgs[0].regions[0].Region, cfgs[0].regions[1].Region); err != nil {
			panic(err)
		}
	})
	body += fmt.Sprintf("\nper-pair steady state: RelatePct %.0f ns / %.0f allocs, ComputeCDRPct %.0f ns / %.0f allocs\n",
		nsPair, allocsPair, nsPairNaive, allocsPairNaive)
	metrics["relate_pct_ns"] = nsPair
	metrics["relate_pct_allocs"] = allocsPair
	metrics["compute_cdr_pct_ns"] = nsPairNaive
	metrics["compute_cdr_pct_allocs"] = allocsPairNaive

	// Query pruning: candidates visited by the R-tree plan vs a full scan.
	sizes := []int{100, 400}
	if o.Quick {
		sizes = []int{100}
	}
	allowed := core.NewRelationSet(core.N, core.NE, core.Rel(core.TileN, core.TileNE))
	qrows := make([][]string, 0, len(sizes))
	for _, qn := range sizes {
		scattered := g.Scatter(qn, 8)
		items := make([]index.Item, qn)
		geoms := make(map[string]geom.Region, qn)
		for i, r := range scattered {
			id := fmt.Sprintf("q%04d", i)
			items[i] = index.Item{Box: r.BoundingBox(), ID: id}
			geoms[id] = r
		}
		tree, err := index.BulkLoad(items)
		if err != nil {
			return Report{}, err
		}
		// Reference in the middle of the scatter window (side = √n·10).
		side := math.Sqrt(float64(qn)) * 10
		ref := workload.BoxRegion(0.45*side, 0.45*side, 0.55*side, 0.55*side)
		matches, st, err := index.DirectionalSelectStats(tree, geoms, ref, allowed)
		if err != nil {
			return Report{}, err
		}
		qrows = append(qrows, []string{
			fmt.Sprint(qn),
			fmt.Sprint(st.Candidates),
			fmt.Sprintf("%.1f%%", 100*float64(st.Candidates)/float64(st.Total)),
			fmt.Sprint(st.Exact),
			fmt.Sprint(len(matches)),
		})
		metrics[fmt.Sprintf("select_candidates_n%d", qn)] = float64(st.Candidates)
		metrics[fmt.Sprintf("select_candidate_rate_n%d", qn)] = float64(st.Candidates) / float64(st.Total)
		metrics[fmt.Sprintf("select_exact_n%d", qn)] = float64(st.Exact)
	}
	body += "\ndirectional selection {N, NE, N:NE} via R-tree windows (full scan visits all n):\n"
	body += Table([]string{"n", "candidates", "visited", "exact refinements", "matches"}, qrows)
	body += "\nwindow queries dismiss most of the world before any geometry is touched;\nresults stay identical to the scan (see TestDirectionalSelectStatsPrunes)\n"
	return Report{
		ID:      "E19",
		Title:   "Zero-allocation quantitative engine: percent batch × query pruning",
		Body:    body,
		Metrics: metrics,
	}, nil
}

// E20StoreDelta measures a single-region edit in an n-region scatter world
// through the relation store. The store holds no pair: SetGeometry is one
// Prepare and a pointer swap, whatever n is, and the 2(n−1) pairs the edit
// changes are computed when they are read. The honest comparison with the
// full O(n²) batch sweep an edit used to cost is therefore "edit, then read
// back every pair the edit touched" — timed on one core, qualitative and
// with percent matrices — with the bare edit reported alongside.
func E20StoreDelta(o Options) (Report, error) {
	g := workload.New(o.Seed)
	n := 500
	if o.Quick {
		n = 150
	}
	regions := make([]core.NamedRegion, n)
	for i, r := range g.Scatter(n, 8) {
		regions[i] = core.NamedRegion{Name: fmt.Sprintf("r%04d", i), Region: r}
	}
	editID := regions[n/2].Name
	// Two alternate geometries inside the same world; the edit benchmark
	// flips between them so every SetGeometry call is a real change.
	spare := g.Scatter(n, 8)
	alts := [2]geom.Region{spare[0], spare[1]}

	nsFullQual := bench(func() {
		if _, err := core.BatchCDR(nil, regions, &core.BatchOptions{Workers: 1}); err != nil {
			panic(err)
		}
	})
	nsFullPct := nsFullQual + bench(func() {
		if _, err := core.BatchPct(nil, regions, &core.BatchOptions{Workers: 1}); err != nil {
			panic(err)
		}
	})

	store, err := core.NewRelationStore(regions, core.StoreOptions{Workers: 1, Pct: true})
	if err != nil {
		return Report{}, err
	}
	flip := 0
	edit := func() {
		flip++
		if err := store.SetGeometry(editID, alts[flip&1]); err != nil {
			panic(err)
		}
	}
	// reread answers the edited region's row and column, one pair at a time.
	reread := func(withPct bool) {
		for _, r := range regions {
			if r.Name == editID {
				continue
			}
			for _, pair := range [2][2]string{{editID, r.Name}, {r.Name, editID}} {
				var err error
				if withPct {
					_, _, err = store.RelationPercent(pair[0], pair[1])
				} else {
					_, err = store.Relation(pair[0], pair[1])
				}
				if err != nil {
					panic(err)
				}
			}
		}
	}
	nsEdit := bench(edit)
	nsRereadQual := bench(func() { edit(); reread(false) })
	nsRereadPct := bench(func() { edit(); reread(true) })

	metrics := map[string]float64{
		"n":                   float64(n),
		"touched_pairs":       float64(2 * (n - 1)),
		"full_qual_ms":        nsFullQual / 1e6,
		"full_pct_ms":         nsFullPct / 1e6,
		"edit_us":             nsEdit / 1e3,
		"edit_reread_qual_us": nsRereadQual / 1e3,
		"edit_reread_pct_us":  nsRereadPct / 1e3,
		"qual_speedup_1cpu":   nsFullQual / nsRereadQual,
		"pct_speedup_1cpu":    nsFullPct / nsRereadPct,
	}

	body := fmt.Sprintf("single-region edit in a %d-region scatter world (%d pairs total, the edit touches %d;\nbare SetGeometry: %.1f µs, no pair computed):\n",
		n, n*(n-1), 2*(n-1), nsEdit/1e3)
	body += Table(
		[]string{"engine", "full recompute", "edit + re-read touched pairs", "speedup"},
		[][]string{
			{
				"qualitative",
				fmt.Sprintf("%.2f ms", nsFullQual/1e6),
				fmt.Sprintf("%.1f µs", nsRereadQual/1e3),
				fmt.Sprintf("%.0fx", nsFullQual/nsRereadQual),
			},
			{
				"qual+percent",
				fmt.Sprintf("%.2f ms", nsFullPct/1e6),
				fmt.Sprintf("%.1f µs", nsRereadPct/1e3),
				fmt.Sprintf("%.0fx", nsFullPct/nsRereadPct),
			},
		},
	)
	body += "\nthe store keeps one Prepared per region and no pair: an edit re-prepares the\ntouched region, and its row and column cost a kernel run each when someone\nreads them (differential-tested against from-scratch recomputes)\n"
	return Report{
		ID:      "E20",
		Title:   "Relation store: region edits with pairs computed on demand",
		Body:    body,
		Metrics: metrics,
	}, nil
}

// Entry is one runnable experiment of the suite.
type Entry struct {
	ID  string
	Run func() (Report, error)
}

// Entries returns the experiment suite in canonical order for the given
// options.
func Entries(o Options) []Entry {
	return []Entry{
		{"E1-E3", E1E2E3EdgeCounts},
		{"E4-E5", func() (Report, error) { return E4E5Scaling(o) }},
		{"E6-E7", func() (Report, error) { return E6E7VsClipping(o) }},
		{"E8", func() (Report, error) { return E8ScanCounts(o) }},
		{"E9", E9Greece},
		{"E10", E10Inverse},
		{"E11", func() (Report, error) { return E11Composition(o) }},
		{"E12", E12Consistency},
		{"E13", func() (Report, error) { return E13Query(o) }},
		{"E14", func() (Report, error) { return E14Expressiveness(o) }},
		{"E15", func() (Report, error) { return E15OpCounts(o) }},
		{"E16", func() (Report, error) { return E16IndexedSelection(o) }},
		{"E17", E17CombinedRelations},
		{"E18", func() (Report, error) { return E18BatchScaling(o) }},
		{"E19", func() (Report, error) { return E19PctBatchAndQueryPruning(o) }},
		{"E20", func() (Report, error) { return E20StoreDelta(o) }},
		{"E22", func() (Report, error) { return E22QueryPlanner(o) }},
		{"E23", func() (Report, error) { return E23HugeWorld(o) }},
		{"E24", func() (Report, error) { return E24Reasoning(o) }},
	}
}

// IDs lists the experiment identifiers in canonical order.
func IDs() []string {
	entries := Entries(Options{})
	ids := make([]string, len(entries))
	for i, e := range entries {
		ids[i] = e.ID
	}
	return ids
}
