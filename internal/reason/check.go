package reason

import (
	"context"
	"errors"
	"time"

	"cardirect/internal/core"
)

// ErrInconsistent reports that a constraint network is certainly
// inconsistent — returned by Entail (an inconsistent network entails
// everything, so the query is meaningless) and mapped to 422 by the HTTP
// layer.
var ErrInconsistent = errors.New("reason: network is inconsistent")

// CheckOptions configures Network.Check.
type CheckOptions struct {
	// MaxScenarios caps the number of atomic axis-scenario pairs examined
	// across ALL solver branches; 0 means the default (100000).
	MaxScenarios int
	// Workers is the parallel solver's fan width; 0 means the default
	// (max(8, GOMAXPROCS)), 1 forces the sequential solver.
	Workers int
	// NoFastPath disables the tractable-fragment fast path (benchmarks and
	// differential tests).
	NoFastPath bool
	// NoParallel forces the sequential solver even for Workers ≠ 1.
	NoParallel bool
	// Topology adds RCC-8 constraints checked jointly with the directional
	// network (combined closure before the search).
	Topology []TopoConstraint
}

// CheckStats reports what each stage of the consistency pipeline did.
type CheckStats struct {
	Vars  int `json:"vars"`
	Edges int `json:"edges"`
	// JointApplied/JointRejected: the combined directional+topological
	// closure ran / refuted the network.
	JointApplied  bool `json:"joint_applied,omitempty"`
	JointRejected bool `json:"joint_rejected,omitempty"`
	// RefineRejected: the directional closure alone refuted the network.
	RefineRejected bool `json:"refine_rejected,omitempty"`
	// FastPathEligible/FastPathDecided: the network fell in the tractable
	// fragment / was decided there without entering the backtracking
	// solver.
	FastPathEligible bool `json:"fastpath_eligible,omitempty"`
	FastPathDecided  bool `json:"fastpath_decided,omitempty"`
	// SolverBranches is the number of top-level branch seeds the parallel
	// solver fanned out (1 for the sequential solver); SolverWorkers the
	// fan width used. Zero when the solver never ran.
	SolverBranches int   `json:"solver_branches,omitempty"`
	SolverWorkers  int   `json:"solver_workers,omitempty"`
	JointNs        int64 `json:"joint_ns,omitempty"`
	RefineNs       int64 `json:"refine_ns,omitempty"`
	FastPathNs     int64 `json:"fastpath_ns,omitempty"`
	SolveNs        int64 `json:"solve_ns,omitempty"`
}

// CheckResult is the outcome of a consistency check. Witness is non-nil
// exactly when Satisfiable — one concrete REG* region per variable
// realising every constraint.
type CheckResult struct {
	Satisfiable bool
	Witness     *Witness
	Stats       CheckStats
}

// Clone returns a deep copy of the network; refining the copy leaves the
// original untouched.
func (n *Network) Clone() *Network {
	m := &Network{
		names: append([]string(nil), n.names...),
		idx:   make(map[string]int, len(n.idx)),
		cons:  make(map[[2]int]core.RelationSet, len(n.cons)),
	}
	for k, v := range n.idx {
		m.idx[k] = v
	}
	for k, v := range n.cons {
		m.cons[k] = v
	}
	return m
}

// Check is the service entry point for consistency: it stages the combined
// directional+topological closure (when topology constraints are given),
// the directional Refine closure, the tractable-fragment fast path, and
// finally the parallel backtracking solver, recording what each stage did
// and how long it took. The receiver is never mutated — all pruning happens
// on a clone. An unsatisfiable network is a normal result (Satisfiable
// false), not an error; errors are reserved for cancelled contexts,
// exhausted budgets (ErrSearchLimit) and invalid topology constraints.
func (n *Network) Check(ctx context.Context, opts CheckOptions) (*CheckResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	maxScenarios := opts.MaxScenarios
	if maxScenarios <= 0 {
		maxScenarios = 100000
	}
	m := n.Clone()
	res := &CheckResult{}
	res.Stats.Vars = len(m.names)

	// Universe edges are tautologies; dropping them spares the solver a
	// 511-relation branch enumeration per vacuous edge.
	u := core.Universe()
	for key, rs := range m.cons {
		if key[0] != key[1] && rs.Equal(u) {
			delete(m.cons, key)
		}
	}

	if len(opts.Topology) > 0 {
		start := time.Now()
		ok, err := m.RefineJoint(opts.Topology)
		res.Stats.JointApplied = true
		res.Stats.JointNs = time.Since(start).Nanoseconds()
		if err != nil {
			return nil, err
		}
		if !ok {
			res.Stats.JointRejected = true
			return res, nil
		}
	} else {
		// The directional closure alone: cheap sound pruning that shrinks
		// disjunctions before any search (and often into the tractable
		// fragment).
		start := time.Now()
		ok := m.Refine()
		res.Stats.RefineNs = time.Since(start).Nanoseconds()
		if !ok {
			res.Stats.RefineRejected = true
			return res, nil
		}
	}

	edges, w, done := m.prepare()
	res.Stats.Edges = len(edges)
	if done {
		res.Satisfiable = w != nil
		res.Witness = w
		return res, nil
	}

	if !opts.NoFastPath && m.fragmentEligible(edges) {
		res.Stats.FastPathEligible = true
		start := time.Now()
		w, decided := m.solveFragment(edges, maxScenarios)
		res.Stats.FastPathNs = time.Since(start).Nanoseconds()
		if decided {
			res.Stats.FastPathDecided = true
			res.Satisfiable = w != nil
			res.Witness = w
			return res, nil
		}
	}

	sopts := SolveOptions{MaxScenarios: maxScenarios, Workers: opts.Workers}
	start := time.Now()
	var err error
	branches := 1
	if opts.NoParallel || opts.Workers == 1 {
		w, err = m.SolveCtx(ctx, sopts)
	} else {
		w, branches, err = m.solveParallel(ctx, sopts)
	}
	res.Stats.SolveNs = time.Since(start).Nanoseconds()
	res.Stats.SolverBranches = branches
	res.Stats.SolverWorkers = opts.Workers
	if err != nil {
		return nil, err
	}
	res.Satisfiable = w != nil
	res.Witness = w
	return res, nil
}
