package replica

import "cardirect/internal/wal"

// SetMaxFetchBytes lowers the cap on one fetch's body to n until the
// returned func restores it. Set it before any replica runs: the tail loop
// reads it unsynchronised.
func SetMaxFetchBytes(n int64) (restore func()) {
	old := maxFetchBytes
	maxFetchBytes = n
	return func() { maxFetchBytes = old }
}

// NewStreamRecord builds record seq as a primary ships it: edits framed as
// the log frames them, then seq and gen in one stream frame.
func NewStreamRecord(seq, gen uint64, edits ...wal.Record) StreamRecord {
	frames, err := wal.AppendRecords(nil, edits)
	if err != nil {
		panic(err)
	}
	return StreamRecord{Seq: seq, Gen: gen, Edits: edits, Frame: frameRecord(seq, gen, frames)}
}
