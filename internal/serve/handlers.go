package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"time"

	"cardirect/internal/config"
	"cardirect/internal/core"
	"cardirect/internal/geom"
	"cardirect/internal/index"
	"cardirect/internal/query"
	"cardirect/internal/wal"
)

// boxJSON is an axis-aligned bounding box on the wire.
type boxJSON struct {
	MinX float64 `json:"minx"`
	MinY float64 `json:"miny"`
	MaxX float64 `json:"maxx"`
	MaxY float64 `json:"maxy"`
}

func toBoxJSON(r geom.Rect) boxJSON {
	return boxJSON{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
}

// regionInfo is the region summary returned by the listing and the edit
// endpoints.
type regionInfo struct {
	ID       string  `json:"id"`
	Name     string  `json:"name,omitempty"`
	Color    string  `json:"color,omitempty"`
	Polygons int     `json:"polygons"`
	Edges    int     `json:"edges"`
	Box      boxJSON `json:"box"`
}

func toRegionInfo(r *config.Region) regionInfo {
	g := r.Geometry()
	return regionInfo{
		ID:       r.ID,
		Name:     r.Name,
		Color:    r.Color,
		Polygons: len(r.Polygons),
		Edges:    g.NumEdges(),
		Box:      toBoxJSON(g.BoundingBox()),
	}
}

// geometryPayload carries a region geometry in either interchange format;
// exactly one of the fields must be set.
type geometryPayload struct {
	WKT     string          `json:"wkt,omitempty"`
	GeoJSON json.RawMessage `json:"geojson,omitempty"`
}

// geometry decodes the payload into a REG* region.
func (p *geometryPayload) geometry() (geom.Region, error) {
	switch {
	case p.WKT != "" && p.GeoJSON != nil:
		return nil, failf(http.StatusBadRequest, "serve: provide wkt or geojson, not both")
	case p.WKT != "":
		g, err := geom.ParseWKT(p.WKT)
		if err != nil {
			return nil, err
		}
		return g, nil
	case p.GeoJSON != nil:
		g, err := geom.ParseGeoJSON(p.GeoJSON)
		if err != nil {
			return nil, err
		}
		return g, nil
	default:
		return nil, failf(http.StatusBadRequest, "serve: missing geometry (wkt or geojson)")
	}
}

// decodeBody decodes a JSON request body into v, translating the
// MaxBytesReader overflow into 413.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return failf(http.StatusRequestEntityTooLarge, "serve: request body over %d bytes", tooLarge.Limit)
		}
		return failf(http.StatusBadRequest, "serve: decoding request body: %v", err)
	}
	// A trailing second JSON value is a malformed request, not data.
	if dec.More() {
		return failf(http.StatusBadRequest, "serve: trailing data after JSON body")
	}
	return nil
}

// pctJSON renders a percent matrix as a tile→percentage map, omitting
// zero tiles; JSON object keys marshal sorted, so bodies are deterministic.
func pctJSON(m core.PercentMatrix) map[string]float64 {
	out := make(map[string]float64, core.NumTiles)
	for _, t := range core.Tiles() {
		if v := m.Get(t); v != 0 {
			out[t.String()] = v
		}
	}
	return out
}

// --- endpoint handlers ---

type healthResponse struct {
	Status  string `json:"status"`
	Regions int    `json:"regions"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	tr := s.tracked()
	if err := tr.Err(); err != nil {
		return failf(http.StatusInternalServerError, "serve: tracking diverged: %v", err)
	}
	if p := s.opt.Persist; p != nil {
		if st := p.Status(); st.Err != "" {
			return failf(http.StatusInternalServerError, "serve: persistence failed: %s", st.Err)
		}
	}
	if f := s.opt.Follower; f != nil {
		// A replica whose tail loop gave up serves a frozen world with a
		// small staleness: failing the probe takes it out of a router's
		// rotation.
		if err := f.Err(); err != nil {
			return failf(http.StatusInternalServerError, "serve: replication stopped: %v", err)
		}
	}
	return writeData(w, http.StatusOK, healthResponse{Status: "ok", Regions: tr.Store().Len()})
}

type regionsResponse struct {
	Regions []regionInfo `json:"regions"`
}

func (s *Server) handleRegionsList(w http.ResponseWriter, r *http.Request) error {
	var out regionsResponse
	err := s.tracked().View(func(img *config.Image) error {
		out.Regions = make([]regionInfo, 0, len(img.Regions))
		for i := range img.Regions {
			out.Regions = append(out.Regions, toRegionInfo(&img.Regions[i]))
		}
		return nil
	})
	if err != nil {
		return err
	}
	sort.Slice(out.Regions, func(i, j int) bool { return out.Regions[i].ID < out.Regions[j].ID })
	return writeData(w, http.StatusOK, out)
}

type regionDetail struct {
	regionInfo
	WKT     string          `json:"wkt"`
	GeoJSON json.RawMessage `json:"geojson"`
}

func (s *Server) handleRegionGet(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	var out regionDetail
	err := s.tracked().View(func(img *config.Image) error {
		reg := img.FindRegion(id)
		if reg == nil {
			return fmt.Errorf("serve: region %q: %w", id, config.ErrUnknownRegion)
		}
		g := reg.Geometry()
		gj, err := geom.FormatGeoJSON(g)
		if err != nil {
			return failf(http.StatusInternalServerError, "serve: encoding %q: %v", id, err)
		}
		out = regionDetail{regionInfo: toRegionInfo(reg), WKT: geom.FormatWKT(g), GeoJSON: gj}
		return nil
	})
	if err != nil {
		return err
	}
	return writeData(w, http.StatusOK, out)
}

type regionUpsert struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	Color string `json:"color,omitempty"`
	geometryPayload
}

// record is the add edit of the region, with its decoded geometry g.
func (u *regionUpsert) record(g geom.Region) wal.Record {
	return wal.Record{Op: wal.OpAdd, ID: u.ID, Name: u.Name, Color: u.Color, Geometry: g}
}

func (s *Server) handleRegionAdd(w http.ResponseWriter, r *http.Request) error {
	var req regionUpsert
	if err := decodeBody(r, &req); err != nil {
		return err
	}
	if req.ID == "" {
		return failf(http.StatusBadRequest, "serve: missing region id")
	}
	g, err := req.geometry()
	if err != nil {
		return err
	}
	if err := s.edit.Apply([]wal.Record{req.record(g)}); err != nil {
		return err
	}
	return s.respondRegion(w, http.StatusCreated, req.ID)
}

func (s *Server) handleRegionSet(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	var req geometryPayload
	if err := decodeBody(r, &req); err != nil {
		return err
	}
	g, err := req.geometry()
	if err != nil {
		return err
	}
	if err := s.edit.Apply([]wal.Record{{Op: wal.OpSetGeometry, ID: id, Geometry: g}}); err != nil {
		return err
	}
	return s.respondRegion(w, http.StatusOK, id)
}

type renameRequest struct {
	NewID string `json:"new_id"`
}

func (s *Server) handleRegionRename(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	var req renameRequest
	if err := decodeBody(r, &req); err != nil {
		return err
	}
	if req.NewID == "" {
		return failf(http.StatusBadRequest, "serve: missing new_id")
	}
	// A self-rename is no edit: nothing is applied, logged or shipped, and
	// the region lookup below answers it (404 for a region that is not there).
	if req.NewID != id {
		if err := s.edit.Apply([]wal.Record{{Op: wal.OpRename, ID: id, NewID: req.NewID}}); err != nil {
			return err
		}
	}
	return s.respondRegion(w, http.StatusOK, req.NewID)
}

func (s *Server) handleRegionDelete(w http.ResponseWriter, r *http.Request) error {
	if err := s.edit.Apply([]wal.Record{{Op: wal.OpRemove, ID: r.PathValue("id")}}); err != nil {
		return err
	}
	w.WriteHeader(http.StatusNoContent)
	return nil
}

// respondRegion returns the post-edit summary of one region.
func (s *Server) respondRegion(w http.ResponseWriter, status int, id string) error {
	var info regionInfo
	err := s.tracked().View(func(img *config.Image) error {
		reg := img.FindRegion(id)
		if reg == nil {
			return fmt.Errorf("serve: region %q: %w", id, config.ErrUnknownRegion)
		}
		info = toRegionInfo(reg)
		return nil
	})
	if err != nil {
		return err
	}
	return writeData(w, status, info)
}

type relationResponse struct {
	Primary   string             `json:"primary"`
	Reference string             `json:"reference"`
	Relation  string             `json:"relation"`
	Pct       map[string]float64 `json:"pct,omitempty"`
}

func (s *Server) handleRelation(w http.ResponseWriter, r *http.Request) error {
	p := r.URL.Query().Get("primary")
	q := r.URL.Query().Get("reference")
	if p == "" || q == "" {
		return failf(http.StatusBadRequest, "serve: missing primary or reference parameter")
	}
	if done, err := s.conditional(w, r); done || err != nil {
		return err
	}
	store := s.tracked().Store()
	out := relationResponse{Primary: p, Reference: q}
	if r.URL.Query().Get("pct") != "" {
		// One call, so relation and matrix come from the same two regions
		// even when an edit lands mid-request.
		rel, m, err := store.RelationPercent(p, q)
		if err != nil {
			return err
		}
		out.Relation, out.Pct = rel.String(), pctJSON(m)
	} else {
		rel, err := store.Relation(p, q)
		if err != nil {
			return err
		}
		out.Relation = rel.String()
	}
	return writeData(w, http.StatusOK, out)
}

type pairJSON struct {
	Primary   string             `json:"primary"`
	Reference string             `json:"reference"`
	Relation  string             `json:"relation,omitempty"`
	Pct       map[string]float64 `json:"pct,omitempty"`
}

type relationsResponse struct {
	Pairs []pairJSON `json:"pairs"`
}

// handleRelations sweeps every ordered pair over the store's held forms,
// under the request context: a server timeout or a client disconnect aborts
// the sweep within one primary row of work.
func (s *Server) handleRelations(w http.ResponseWriter, r *http.Request) error {
	if done, err := s.conditional(w, r); done || err != nil {
		return err
	}
	store := s.tracked().Store()
	var out relationsResponse
	if r.URL.Query().Get("pct") != "" {
		pairs, err := store.PctPairsCtx(r.Context())
		if err != nil {
			return err
		}
		out.Pairs = make([]pairJSON, 0, len(pairs))
		for _, p := range pairs {
			out.Pairs = append(out.Pairs, pairJSON{Primary: p.Primary, Reference: p.Reference, Pct: pctJSON(p.Matrix)})
		}
	} else {
		pairs, err := store.PairsCtx(r.Context())
		if err != nil {
			return err
		}
		out.Pairs = make([]pairJSON, 0, len(pairs))
		for _, p := range pairs {
			out.Pairs = append(out.Pairs, pairJSON{Primary: p.Primary, Reference: p.Reference, Relation: p.Relation.String()})
		}
	}
	return writeData(w, http.StatusOK, out)
}

type bulkResponse struct {
	// Added is the number of regions ingested.
	Added int `json:"added"`
	// Batches is the number of edits (generation bumps, WAL appends) the
	// ingest cost — one per request.
	Batches    int   `json:"batches"`
	DurationNs int64 `json:"duration_ns"`
}

// handleBulk ingests a stream of regions — NDJSON, one region object per
// line in the POST /v1/regions shape ({"id", "name", "color", "wkt" |
// "geojson"}) — as ONE edit: the whole stream is decoded into one slice of
// OpAdd records, then applied through the editor, so the relation store
// advances one generation (and the durable store pays a single batched WAL
// append with one fsync) regardless of how many regions arrive. The ingest
// is atomic: any undecodable line, invalid geometry or duplicate id
// rejects the whole stream with nothing applied. Oversized streams map to
// 413 via the route's body cap (Options.MaxBulkBytes).
func (s *Server) handleBulk(w http.ResponseWriter, r *http.Request) error {
	start := time.Now()
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var regions []wal.Record
	for {
		var line regionUpsert
		if err := dec.Decode(&line); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				return failf(http.StatusRequestEntityTooLarge, "serve: request body over %d bytes", tooLarge.Limit)
			}
			return failf(http.StatusBadRequest, "serve: decoding bulk line %d: %v", len(regions)+1, err)
		}
		if line.ID == "" {
			return failf(http.StatusBadRequest, "serve: bulk line %d: missing region id", len(regions)+1)
		}
		g, err := line.geometry()
		if err != nil {
			return failf(http.StatusBadRequest, "serve: bulk line %d (%s): %v", len(regions)+1, line.ID, err)
		}
		regions = append(regions, line.record(g))
	}
	if len(regions) == 0 {
		return failf(http.StatusBadRequest, "serve: empty bulk stream")
	}
	if err := s.edit.Apply(regions); err != nil {
		return err
	}
	return writeData(w, http.StatusOK, bulkResponse{
		Added:      len(regions),
		Batches:    1,
		DurationNs: time.Since(start).Nanoseconds(),
	})
}

type selectResponse struct {
	Reference string            `json:"reference"`
	Relation  string            `json:"relation"`
	Matches   []string          `json:"matches"`
	Stats     index.SelectStats `json:"stats"`
}

// handleSelect answers a directional selection ("everything north of b")
// through the live R-tree: window queries per constraint tile, MBB
// refinement, exact Compute-CDR refinement — under the read lock, so edits
// never move index entries mid-plan.
func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) error {
	refID := r.URL.Query().Get("reference")
	relStr := r.URL.Query().Get("relation")
	if refID == "" || relStr == "" {
		return failf(http.StatusBadRequest, "serve: missing reference or relation parameter")
	}
	allowed, err := core.ParseRelationSet(relStr)
	if err != nil {
		return err
	}
	if done, err := s.conditional(w, r); done || err != nil {
		return err
	}
	tr := s.tracked()
	out := selectResponse{Reference: refID, Relation: allowed.String(), Matches: []string{}}
	err = tr.View(func(img *config.Image) error {
		reg := img.FindRegion(refID)
		if reg == nil {
			return fmt.Errorf("serve: region %q: %w", refID, config.ErrUnknownRegion)
		}
		matches, st, err := tr.Index().SelectStatsCtx(r.Context(), reg.Geometry(), allowed)
		if err != nil {
			return err
		}
		if matches != nil {
			out.Matches = matches
		}
		out.Stats = st
		return nil
	})
	if err != nil {
		return err
	}
	// The reference matches itself only under B; drop it like the query
	// evaluator's l == r rule unless B is allowed.
	if !allowed.Contains(core.B) {
		for i, id := range out.Matches {
			if id == refID {
				out.Matches = append(out.Matches[:i], out.Matches[i+1:]...)
				break
			}
		}
	}
	return writeData(w, http.StatusOK, out)
}

type queryRequest struct {
	Q string `json:"q"`
	// Args binds the query's $-parameters, e.g. {"start": "attica"} for
	// "x = $start". Parameterised texts share one cached plan.
	Args map[string]string `json:"args,omitempty"`
}

type queryResponse struct {
	Vars     []string            `json:"vars"`
	Bindings []map[string]string `json:"bindings"`
	// Plan describes how the planner executed the query: variable order,
	// scheduled conditions, pushed-down conditions, candidate-set sizes.
	Plan *query.PlanInfo `json:"plan,omitempty"`
	// Cache reports the plan cache outcome: "hit", "miss" or "replan".
	Cache string `json:"cache,omitempty"`
	// Generation is the store edit generation the evaluation ran against
	// (also served as the response's ETag).
	Generation uint64 `json:"generation"`
}

// handleQuery evaluates a conjunctive query of the paper's language through
// the server's query engine: relations come from the tracked store,
// the join is planned through the shared plan cache, the document is read
// from the current generation's query snapshot (the first query after an
// edit rebuilds it, and says so on its access line), and the request context
// is honored. Responses carry the store generation as an ETag, so a repeat
// reader holding If-None-Match skips evaluation with a 304.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) error {
	var req queryRequest
	if err := decodeBody(r, &req); err != nil {
		return err
	}
	if req.Q == "" {
		return failf(http.StatusBadRequest, "serve: missing query (q)")
	}
	if done, err := s.conditional(w, r); done || err != nil {
		return err
	}
	res, built, err := s.engine.Run(r.Context(), s.tracked(), req.Q, req.Args)
	if sw, ok := w.(*statusWriter); ok && built > 0 {
		sw.extra = slog.Int64("snapshot_build_ns", built.Nanoseconds())
	}
	if err != nil {
		return err
	}
	out := queryResponse{Vars: res.Vars, Plan: res.Plan, Cache: res.Cache, Generation: res.Generation,
		Bindings: make([]map[string]string, len(res.Bindings))}
	for i, b := range res.Bindings {
		out.Bindings[i] = b
	}
	return writeData(w, http.StatusOK, out)
}

type statsResponse struct {
	Regions int             `json:"regions"`
	Indexed int             `json:"indexed"`
	Store   core.StoreStats `json:"store"`
}

// handleAdminSnapshot rotates the durable store: write the next snapshot
// generation and truncate the WAL. 404
// when the server runs without persistence.
func (s *Server) handleAdminSnapshot(w http.ResponseWriter, r *http.Request) error {
	p := s.opt.Persist
	if p == nil {
		return failf(http.StatusNotFound, "serve: persistence not enabled (start with -data)")
	}
	info, err := p.Snapshot()
	if err != nil {
		return err
	}
	return writeData(w, http.StatusOK, info)
}

// handleAdminStatus reports the durability counters of the store.
func (s *Server) handleAdminStatus(w http.ResponseWriter, r *http.Request) error {
	p := s.opt.Persist
	if p == nil {
		return failf(http.StatusNotFound, "serve: persistence not enabled (start with -data)")
	}
	return writeData(w, http.StatusOK, p.Status())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) error {
	if done, err := s.conditional(w, r); done || err != nil {
		return err
	}
	tr := s.tracked()
	var out statsResponse
	err := tr.View(func(img *config.Image) error {
		out.Regions = len(img.Regions)
		out.Indexed = tr.Index().Len()
		out.Store = tr.Store().Stats()
		return nil
	})
	if err != nil {
		return err
	}
	return writeData(w, http.StatusOK, out)
}
