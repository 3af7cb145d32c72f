package replica

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"cardirect/internal/config"
	"cardirect/internal/geom"
	"cardirect/internal/persist"
	"cardirect/internal/wal"
)

// Editor is the service's one mutation surface. An edit is a []wal.Record
// — one record, or a bulk of OpAdd records that lands as one generation
// bump — the same value the WAL stores and the replication stream ships.
// config.Tracked applies it (the one op switch), persist.Store applies and
// logs it, a Primary applies it through the editor below and ships it, and
// the HTTP layer writes through whichever of them tops the stack.
type Editor interface {
	Apply(recs []wal.Record) error
}

// ErrTruncated reports a follower asking for records the primary has
// already trimmed from its retained window: the follower must re-bootstrap
// from a fresh snapshot (the HTTP layer maps it to 410 Gone).
var ErrTruncated = errors.New("replica: requested sequence trimmed from the retained log")

// PrimaryOptions configures a Primary.
type PrimaryOptions struct {
	// Retain is how many records the in-memory replication log keeps;
	// followers further behind than this re-bootstrap from a snapshot.
	// Values ≤ 0 mean 65536.
	Retain int
	// Pct is the primary store's StoreOptions.Pct, announced to followers
	// (HeaderPct) so a replica builds its store with the same option.
	Pct bool
}

// Primary wraps the write path of a serving process: every successful edit
// is encoded as a replication record and retained in a bounded in-memory
// log that followers tail over HTTP. Sequence numbers are scoped to an
// epoch — a random token chosen at construction — so a restarted primary
// (whose in-memory log is empty again) is never confused with its previous
// incarnation: followers check the epoch on every fetch and re-bootstrap
// when it changes.
type Primary struct {
	mu     sync.Mutex
	tr     *config.Tracked
	under  Editor
	opt    PrimaryOptions
	epoch  string
	recs   []StreamRecord // retained window; recs[0].Seq == floor+1
	floor  uint64         // highest trimmed sequence (0: nothing trimmed)
	head   uint64         // last assigned sequence
	notify chan struct{}  // closed and replaced on every append
}

// NewPrimary wraps an editor (the Tracked itself, or a persist.Store in
// durable deployments) whose edits land in tr's store.
func NewPrimary(tr *config.Tracked, under Editor, opt PrimaryOptions) *Primary {
	if opt.Retain <= 0 {
		opt.Retain = 65536
	}
	var tok [8]byte
	if _, err := rand.Read(tok[:]); err != nil {
		// Fall back to the only entropy left; epochs merely need to differ
		// between process incarnations with high probability.
		copy(tok[:], fmt.Sprintf("%d", time.Now().UnixNano()))
	}
	return &Primary{
		tr:     tr,
		under:  under,
		opt:    opt,
		epoch:  hex.EncodeToString(tok[:]),
		notify: make(chan struct{}),
	}
}

// Epoch returns the primary's replication epoch token.
func (p *Primary) Epoch() string { return p.epoch }

// Head returns the sequence of the last shipped record.
func (p *Primary) Head() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.head
}

// Generation returns the primary store's current generation.
func (p *Primary) Generation() uint64 { return p.tr.Store().Generation() }

// Pct reports whether the primary's store answers percentages.
func (p *Primary) Pct() bool { return p.opt.Pct }

// append records one applied edit batch, encoded by EncodeEdits. Callers
// hold p.mu and have already applied the edit, so the store generation read
// here is the post-apply one.
func (p *Primary) append(payload []byte) {
	p.head++
	p.recs = append(p.recs, StreamRecord{
		Seq:     p.head,
		Gen:     p.tr.Store().Generation(),
		Payload: payload,
	})
	if over := len(p.recs) - p.opt.Retain; over > 0 {
		p.floor = p.recs[over-1].Seq
		p.recs = append(p.recs[:0], p.recs[over:]...)
	}
	close(p.notify)
	p.notify = make(chan struct{})
}

// Apply implements Editor: the edit goes through the editor below, and on
// success the same slice ships as ONE stream record, so a follower applies
// a bulk atomically and bumps its generation once, exactly like the
// primary did. An edit whose record would not fit one frame is refused
// with wal.ErrTooLarge before anything applies; an empty edit ships
// nothing.
func (p *Primary) Apply(recs []wal.Record) error {
	payload := EncodeEdits(recs)
	if err := wal.CheckPayload(recordHeaderSize + len(payload)); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.under.Apply(recs); err != nil {
		return err
	}
	if len(recs) > 0 {
		p.append(payload)
	}
	return nil
}

// AddRegion applies and ships one OpAdd record.
func (p *Primary) AddRegion(id, name, color string, g geom.Region) error {
	return p.Apply([]wal.Record{{Op: wal.OpAdd, ID: id, Name: name, Color: color, Geometry: g}})
}

// RemoveRegion applies and ships one OpRemove record.
func (p *Primary) RemoveRegion(id string) error {
	return p.Apply([]wal.Record{{Op: wal.OpRemove, ID: id}})
}

// RenameRegion applies and ships one OpRename record.
func (p *Primary) RenameRegion(oldID, newID string) error {
	return p.Apply([]wal.Record{{Op: wal.OpRename, ID: oldID, NewID: newID}})
}

// SetRegionGeometry applies and ships one OpSetGeometry record.
func (p *Primary) SetRegionGeometry(id string, g geom.Region) error {
	return p.Apply([]wal.Record{{Op: wal.OpSetGeometry, ID: id, Geometry: g}})
}

// Snapshot encodes the current world's regions as a binary snapshot,
// returning it with the replication coordinates a follower needs to build
// its store and resume the tail: the head sequence and the store generation
// — captured atomically with the snapshot under the edit lock, so "snapshot
// at seq S, gen G" is exact, not racy. Reads carry on beside the encode.
func (p *Primary) Snapshot() (data []byte, seq, gen uint64, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.tr.Store().Len() == 0 {
		return nil, 0, 0, persist.ErrEmptyWorld
	}
	err = p.tr.View(func(img *config.Image) error {
		data = persist.EncodeSnapshot(img)
		return nil
	})
	return data, p.head, p.tr.Store().Generation(), err
}

// Records returns the retained records with sequence ≥ from, plus the
// current head. A from at or below the trimmed floor returns ErrTruncated:
// the follower is too far behind and must re-bootstrap. A from beyond the
// head returns no records (poll again, or Wait first).
func (p *Primary) Records(from uint64, max int) ([]StreamRecord, uint64, error) {
	if from == 0 {
		from = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if from <= p.floor {
		return nil, p.head, fmt.Errorf("%w (floor %d, requested %d)", ErrTruncated, p.floor, from)
	}
	i := int(from - p.floor - 1)
	if i >= len(p.recs) {
		return nil, p.head, nil
	}
	out := p.recs[i:]
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	// Copy the slice header run so a later trim cannot alias the caller's
	// view; payloads are append-only and safe to share.
	return append([]StreamRecord(nil), out...), p.head, nil
}

// Wait blocks until the head advances past after, the timeout elapses, or
// ctx is done — the long-poll primitive behind GET /v1/replication/wal.
func (p *Primary) Wait(ctx context.Context, after uint64, timeout time.Duration) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		p.mu.Lock()
		head, ch := p.head, p.notify
		p.mu.Unlock()
		if head > after {
			return
		}
		select {
		case <-ch:
		case <-deadline.C:
			return
		case <-ctx.Done():
			return
		}
	}
}
