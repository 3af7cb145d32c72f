package serve

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"cardirect/internal/replica"
)

// maxWALWait caps the long-poll duration a follower may request; the
// request timeout (when configured) still cuts it shorter via the context.
const maxWALWait = 60 * time.Second

// defaultWALBatch bounds records per wal fetch when the follower does not
// say.
const defaultWALBatch = 4096

// handleReplSnapshot streams the current world as a binary snapshot
// (persist's CDSN format) plus the replication coordinates — epoch, head
// sequence, store generation, percent mode — a follower needs to seed
// itself and resume the tail exactly where the snapshot leaves off.
func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) error {
	p := s.opt.Repl
	if p == nil {
		return failf(http.StatusNotFound, "serve: replication not enabled (this node is not a replication primary)")
	}
	data, seq, gen, err := p.Snapshot()
	if err != nil {
		return err
	}
	h := w.Header()
	h.Set(replica.HeaderEpoch, p.Epoch())
	h.Set(replica.HeaderSeq, strconv.FormatUint(seq, 10))
	h.Set(replica.HeaderGeneration, strconv.FormatUint(gen, 10))
	h.Set(replica.HeaderPct, pctMode(p.Pct()))
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(len(data)))
	_, err = w.Write(data)
	return err
}

// handleReplWAL serves framed replication records from ?from=<seq>,
// long-polling up to ?wait when the follower is caught up. A from below
// the retained window answers 410 wal_truncated: the follower re-bootstraps
// from a fresh snapshot.
func (s *Server) handleReplWAL(w http.ResponseWriter, r *http.Request) error {
	p := s.opt.Repl
	if p == nil {
		return failf(http.StatusNotFound, "serve: replication not enabled (this node is not a replication primary)")
	}
	q := r.URL.Query()
	from := uint64(1)
	if v := q.Get("from"); v != "" {
		var err error
		if from, err = strconv.ParseUint(v, 10, 64); err != nil || from == 0 {
			return failf(http.StatusBadRequest, "serve: bad from parameter %q (want a sequence ≥ 1)", v)
		}
	}
	max := defaultWALBatch
	if v := q.Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return failf(http.StatusBadRequest, "serve: bad max parameter %q", v)
		}
		max = n
	}
	if v := q.Get("wait"); v != "" {
		wait, err := time.ParseDuration(v)
		if err != nil || wait < 0 {
			return failf(http.StatusBadRequest, "serve: bad wait parameter %q", v)
		}
		if wait > maxWALWait {
			wait = maxWALWait
		}
		if wait > 0 {
			p.Wait(r.Context(), from-1, wait)
		}
	}
	recs, head, err := p.Records(from, max)
	h := w.Header()
	h.Set(replica.HeaderEpoch, p.Epoch())
	h.Set(replica.HeaderHead, strconv.FormatUint(head, 10))
	if err != nil {
		if errors.Is(err, replica.ErrTruncated) {
			return failCode(http.StatusGone, "wal_truncated",
				map[string]any{"head": head}, "serve: %v; re-bootstrap from /v1/replication/snapshot", err)
		}
		return err
	}
	data := replica.EncodeStream(recs)
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(len(data)))
	_, err = w.Write(data)
	return err
}

// replStatusResponse reports a node's replication position.
type replStatusResponse struct {
	Role       string          `json:"role"`
	Enabled    bool            `json:"enabled"`
	Generation uint64          `json:"generation"`
	Pct        string          `json:"pct"`
	Epoch      string          `json:"epoch,omitempty"`
	HeadSeq    uint64          `json:"head_seq,omitempty"`
	Replica    *replica.Status `json:"replica,omitempty"`
}

// handleReplStatus reports the node's role and replication position: on a
// primary the epoch and head sequence of the shipped log, on a replica the
// follower's applied/lag counters — the machine-readable face of the
// "replication" expvars.
func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) error {
	store := s.tracked().Store()
	out := replStatusResponse{
		Role:       "primary",
		Generation: store.Generation(),
		Pct:        pctMode(store.Pct()),
	}
	if p := s.opt.Repl; p != nil {
		out.Enabled = true
		out.Epoch = p.Epoch()
		out.HeadSeq = p.Head()
	}
	if f := s.opt.Follower; f != nil {
		out.Role = "replica"
		out.Enabled = true
		st := f.Status()
		out.Replica = &st
		out.Epoch = st.Epoch
	}
	return writeData(w, http.StatusOK, out)
}

func pctMode(on bool) string {
	if on {
		return "on"
	}
	return "off"
}
