package serve

import (
	"net/http"

	"cardirect/internal/core"
	"cardirect/internal/geom"
	"cardirect/internal/reason"
	"cardirect/internal/topo"
)

// The reasoning endpoints expose the qualitative layer of the paper (§5–§6):
// consistency checking over cardinal direction constraint networks, optional
// joint RCC-8 topology, entailment through algebraic closure, and the raw
// composition/inverse algebra. They are /v1-only — the family did not exist
// before versioning.

// constraintJSON is one directional constraint x R y; Relation is a
// RelationSet in the repo's textual form ("S:SW" for a disjunction of the
// two single-tile relations, "B:S:SW" for one multi-tile relation — see
// core.ParseRelationSet).
type constraintJSON struct {
	X        string `json:"x"`
	Y        string `json:"y"`
	Relation string `json:"relation"`
}

// topoJSON is one RCC-8 constraint x R y; Relation names a relation set like
// "TPP|NTPP" or "*" for the universal set.
type topoJSON struct {
	X        string `json:"x"`
	Y        string `json:"y"`
	Relation string `json:"relation"`
}

type checkRequest struct {
	// Variables optionally declares region variables beyond the ones the
	// constraints mention (isolated variables are satisfiable trivially but
	// count toward the network size cap).
	Variables   []string         `json:"variables,omitempty"`
	Constraints []constraintJSON `json:"constraints"`
	Topology    []topoJSON       `json:"topology,omitempty"`
	// MaxScenarios caps the scenario search; 0 means the solver default.
	MaxScenarios int `json:"max_scenarios,omitempty"`
	// Workers is the solver's fan width; 0 means reason's default.
	Workers int `json:"workers,omitempty"`
}

type checkResponse struct {
	Satisfiable bool `json:"satisfiable"`
	// Witness maps each variable to a realising region in WKT, present
	// exactly when satisfiable.
	Witness map[string]string `json:"witness,omitempty"`
	Stats   reason.CheckStats `json:"stats"`
}

type entailRequest struct {
	Variables   []string         `json:"variables,omitempty"`
	Constraints []constraintJSON `json:"constraints"`
	X           string           `json:"x"`
	Y           string           `json:"y"`
}

type entailResponse struct {
	X        string `json:"x"`
	Y        string `json:"y"`
	Relation string `json:"relation"`
	// Count is the number of basic relations in the entailed set (511 means
	// the network says nothing about the pair).
	Count int `json:"count"`
}

type composeRequest struct {
	// R1 and R2 compose; alternatively R alone inverts.
	R1 string `json:"r1,omitempty"`
	R2 string `json:"r2,omitempty"`
	R  string `json:"r,omitempty"`
}

type composeResponse struct {
	Result string `json:"result"`
	Count  int    `json:"count"`
}

// buildNetwork assembles a reason.Network from request fields, enforcing the
// server's network size cap (413 — the consistency search is worst-case
// exponential in the variable count).
func (s *Server) buildNetwork(variables []string, constraints []constraintJSON) (*reason.Network, error) {
	n := reason.NewNetwork()
	for _, v := range variables {
		if v == "" {
			return nil, failf(http.StatusBadRequest, "empty variable name")
		}
		n.AddVariable(v)
	}
	for i, c := range constraints {
		if c.X == "" || c.Y == "" {
			return nil, failf(http.StatusBadRequest, "constraint %d: missing x or y", i)
		}
		rs, err := core.ParseRelationSet(c.Relation)
		if err != nil {
			return nil, failf(http.StatusBadRequest, "constraint %d: %v", i, err)
		}
		if err := n.Constrain(c.X, c.Y, rs); err != nil {
			return nil, failf(http.StatusBadRequest, "constraint %d: %v", i, err)
		}
	}
	if nv := len(n.Variables()); nv > s.opt.MaxNetwork {
		return nil, failCode(http.StatusRequestEntityTooLarge, "network_too_large",
			map[string]int{"vars": nv, "max": s.opt.MaxNetwork},
			"network declares %d variables, cap is %d", nv, s.opt.MaxNetwork)
	}
	return n, nil
}

// handleReasonCheck decides satisfiability of a directional (optionally
// joint-topological) constraint network and returns a witness when it is
// satisfiable. Unsatisfiable is a 200 with satisfiable=false; 504 means the
// scenario budget or request timeout ran out before a decision.
func (s *Server) handleReasonCheck(w http.ResponseWriter, r *http.Request) error {
	var req checkRequest
	if err := decodeBody(r, &req); err != nil {
		return err
	}
	n, err := s.buildNetwork(req.Variables, req.Constraints)
	if err != nil {
		return err
	}
	var topoCons []reason.TopoConstraint
	for i, t := range req.Topology {
		ts, err := topo.ParseRCC8Set(t.Relation)
		if err != nil {
			return failf(http.StatusBadRequest, "topology %d: %v", i, err)
		}
		if t.X == "" || t.Y == "" {
			return failf(http.StatusBadRequest, "topology %d: missing x or y", i)
		}
		topoCons = append(topoCons, reason.TopoConstraint{X: t.X, Y: t.Y, Rels: ts})
	}
	res, err := n.Check(r.Context(), reason.CheckOptions{
		MaxScenarios: req.MaxScenarios,
		Workers:      req.Workers,
		Topology:     topoCons,
	})
	if err != nil {
		return err
	}
	metrics.Add("reason.checks", 1)
	if res.Stats.FastPathDecided {
		metrics.Add("reason.fastpath_decided", 1)
	}
	if !res.Satisfiable {
		metrics.Add("reason.unsat", 1)
	}
	out := checkResponse{Satisfiable: res.Satisfiable, Stats: res.Stats}
	if res.Witness != nil {
		out.Witness = make(map[string]string, len(res.Witness.Regions))
		for name, g := range res.Witness.Regions {
			out.Witness[name] = geom.FormatWKT(g)
		}
	}
	return writeData(w, http.StatusOK, out)
}

// handleReasonEntail answers the strongest relation the network implies
// between an ordered pair, via algebraic closure. An inconsistent network is
// a 422 (it entails everything, so the query is meaningless).
func (s *Server) handleReasonEntail(w http.ResponseWriter, r *http.Request) error {
	var req entailRequest
	if err := decodeBody(r, &req); err != nil {
		return err
	}
	if req.X == "" || req.Y == "" {
		return failf(http.StatusBadRequest, "missing x or y")
	}
	n, err := s.buildNetwork(req.Variables, req.Constraints)
	if err != nil {
		return err
	}
	rs, err := n.Entail(req.X, req.Y)
	if err != nil {
		return err
	}
	metrics.Add("reason.entails", 1)
	return writeData(w, http.StatusOK, entailResponse{
		X: req.X, Y: req.Y, Relation: rs.String(), Count: rs.Len(),
	})
}

// handleReasonCompose exposes the algebra directly: r1 and r2 compose
// (paper §5's consistency-based composition extended to sets), or r alone
// inverts.
func (s *Server) handleReasonCompose(w http.ResponseWriter, r *http.Request) error {
	var req composeRequest
	if err := decodeBody(r, &req); err != nil {
		return err
	}
	var out core.RelationSet
	switch {
	case req.R != "" && req.R1 == "" && req.R2 == "":
		rs, err := core.ParseRelationSet(req.R)
		if err != nil {
			return failf(http.StatusBadRequest, "r: %v", err)
		}
		out = reason.InverseSet(rs)
	case req.R == "" && req.R1 != "" && req.R2 != "":
		s1, err := core.ParseRelationSet(req.R1)
		if err != nil {
			return failf(http.StatusBadRequest, "r1: %v", err)
		}
		s2, err := core.ParseRelationSet(req.R2)
		if err != nil {
			return failf(http.StatusBadRequest, "r2: %v", err)
		}
		out = reason.CompositionSets(s1, s2)
	default:
		return failf(http.StatusBadRequest, "provide either r1 and r2 (composition) or r alone (inverse)")
	}
	metrics.Add("reason.composes", 1)
	return writeData(w, http.StatusOK, composeResponse{Result: out.String(), Count: out.Len()})
}
