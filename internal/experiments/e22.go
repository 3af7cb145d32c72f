package experiments

import (
	"fmt"
	"reflect"

	"cardirect/internal/config"
	"cardirect/internal/core"
	"cardirect/internal/geom"
	"cardirect/internal/query"
	"cardirect/internal/workload"
)

const e22N = 500 // the acceptance bar is pinned to a 500-region world

// e22World is one of E22's worlds: a name, the prefix of its region ids and
// its geometries.
type e22World struct {
	name   string
	prefix string
	geoms  []geom.Region
}

// e22Worlds returns E22's scatter and cluster worlds.
func e22Worlds(o Options) []e22World {
	g := workload.New(o.Seed)
	return []e22World{
		{"scatter", "s", g.Scatter(e22N, 8)},
		{"cluster", "c", g.Cluster(e22N, e22N/8, 8)},
	}
}

// track builds the world's tracked configuration (store with percent
// matrices, one worker, live R-tree) with a small color palette so
// attribute conditions have something to filter on, and returns it with
// an evaluator of E22's adversarial query over its store, written order
// (planner false) or planned.
//
// The ordering is adversarial: the expensive percent condition leads, the
// pinning bind trails, and both relation conditions pin their primary side
// (z, the middle region). The shape is satisfiable: z north of x and south
// of y puts x south of y, so x lands in y's SW tile for the western half of
// the pairs.
func (w e22World) track() (*config.Tracked, func(planner bool) ([]query.Binding, error), error) {
	img := &config.Image{Name: "e22-" + w.prefix}
	for i, r := range w.geoms {
		id := fmt.Sprintf("%s%04d", w.prefix, i)
		reg := config.Region{ID: id, Name: id, Color: fmt.Sprintf("c%d", i%6)}
		reg.SetGeometry(r)
		img.Regions = append(img.Regions, reg)
	}
	tr, err := config.Track(img, core.StoreOptions{Workers: 1, Pct: true})
	if err != nil {
		return nil, nil, err
	}
	adversarial := fmt.Sprintf(
		"q(x, y, z) :- pct(x SW y) >= 40, z {N, N:NE, NE} x, z {S, S:SW, SW} y, z = %s",
		img.Regions[len(w.geoms)/2].ID)
	eval := func(planner bool) ([]query.Binding, error) {
		ev, err := query.NewEvaluator(img)
		if err != nil {
			return nil, err
		}
		ev.UseStore(tr.Store())
		ev.SetPlanner(planner)
		return ev.EvalString(adversarial)
	}
	return tr, eval, nil
}

// E22QueryPlanner measures the cost-based query planner (plan.go) against
// written-order evaluation on 500-region scatter and cluster worlds (the
// plan cache's hit and miss costs are bench/'s query.run_hit_us and
// query.run_miss_us):
//
//   - written_ms_* / planner_ms_*: an adversarially-ordered three-variable
//     query — the percent condition written first, the binding that pins
//     the join written last, and both relation conditions pinned on their
//     PRIMARY side. The written-order join pushes nothing down and binds x
//     and y before the bound z, paying n² percent checks; the planner binds
//     z first and pushes both relation conditions down as one store row
//     read each (n kernel runs over the held Prepared forms — the store
//     caches no rows), shrinking x and y before the join. Results are
//     asserted identical (sorted bindings) before timing.
//   - planner_speedup: the smaller of the two worlds' ratios — the
//     regression-gated floor behind TestE22PlannerWins (≥5x).
func E22QueryPlanner(o Options) (Report, error) {
	worlds := e22Worlds(o)
	metrics := map[string]float64{"n": float64(e22N)}

	// benchBest times written and planned evaluation in alternating rounds,
	// so a burst of load on the machine lands on both sides of the ratio,
	// and keeps each side's best of three.
	benchBest := func(written, planned func()) (nsWritten, nsPlanner float64) {
		for i := 0; i < 3; i++ {
			if ns := bench(written); nsWritten == 0 || ns < nsWritten {
				nsWritten = ns
			}
			if ns := bench(planned); nsPlanner == 0 || ns < nsPlanner {
				nsPlanner = ns
			}
		}
		return nsWritten, nsPlanner
	}

	var rows [][]string
	plannerSpeedup := 0.0
	for _, w := range worlds {
		tr, eval, err := w.track()
		if err != nil {
			return Report{}, err
		}
		defer tr.Close()
		// Result equality first: the planner must be a pure optimisation.
		want, err := eval(false)
		if err != nil {
			return Report{}, err
		}
		got, err := eval(true)
		if err != nil {
			return Report{}, err
		}
		if !reflect.DeepEqual(want, got) {
			return Report{}, fmt.Errorf("E22 %s: planner results differ from written order (%d vs %d bindings)",
				w.name, len(got), len(want))
		}
		nsWritten, nsPlanner := benchBest(func() {
			if _, err := eval(false); err != nil {
				panic(err)
			}
		}, func() {
			if _, err := eval(true); err != nil {
				panic(err)
			}
		})
		speedup := nsWritten / nsPlanner
		if plannerSpeedup == 0 || speedup < plannerSpeedup {
			plannerSpeedup = speedup
		}
		metrics["written_ms_"+w.name] = nsWritten / 1e6
		metrics["planner_ms_"+w.name] = nsPlanner / 1e6
		metrics["bindings_"+w.name] = float64(len(want))
		rows = append(rows, []string{
			w.name,
			fmt.Sprintf("%.2f ms", nsWritten/1e6),
			fmt.Sprintf("%.2f ms", nsPlanner/1e6),
			fmt.Sprintf("%.1fx", speedup),
			fmt.Sprint(len(want)),
		})
	}
	metrics["planner_speedup"] = plannerSpeedup

	body := fmt.Sprintf("adversarially-ordered 3-variable query, %d-region worlds, store on one worker:\n", e22N)
	body += Table(
		[]string{"world", "written order", "planner", "speedup", "bindings"},
		rows,
	)
	body += "\nthe planner binds the pinned variable first and pushes both relation\nconditions down as one store row read each before the join; written order\npays the full n-squared percent sweep (results asserted identical).\n"
	return Report{
		ID:      "E22",
		Title:   "Cost-based query planner: selectivity-ordered joins vs written order",
		Body:    body,
		Metrics: metrics,
	}, nil
}
