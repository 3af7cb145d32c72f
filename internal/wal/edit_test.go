package wal

import (
	"bytes"
	"reflect"
	"testing"
)

// sampleEdit is a replicated bulk of two adds as a replica's log holds it.
func sampleEdit() Record {
	adds := sampleRecords()[:1]
	second := adds[0]
	second.ID = "boeotia"
	return Record{Op: OpEdit, Seq: 7, Gen: 12, Edits: append(adds, second)}
}

// TestEditFrames: an OpEdit frame is seq, gen and the edit's own record
// frames, however it is built; it replays beside plain records with its
// records whole, a torn one drops the whole edit, and an edit inside an edit
// is refused.
func TestEditFrames(t *testing.T) {
	edit := sampleEdit()
	frames, err := AppendRecords(nil, edit.Edits)
	if err != nil {
		t.Fatal(err)
	}
	built, err := AppendEdit(nil, edit.Seq, edit.Gen, frames)
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := AppendRecords(nil, []Record{edit})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(built, encoded) {
		t.Fatal("AppendEdit and AppendRecords frame the same edit differently")
	}
	if !bytes.Equal(built[FrameSize+EditHeaderSize:], frames) {
		t.Fatal("an OpEdit frame does not carry the edit's record frames verbatim")
	}

	plain := sampleRecords()[1:2]
	log, err := AppendRecords([]byte(Magic), plain)
	if err != nil {
		t.Fatal(err)
	}
	log = append(log, built...)
	recs, valid, corr := Replay(log)
	if corr != nil || valid != int64(len(log)) || !reflect.DeepEqual(recs, append(plain, edit)) {
		t.Fatalf("mixed log: %d records, valid %d of %d, corruption %v", len(recs), valid, len(log), corr)
	}
	for cut := len(log) - len(built); cut < len(log); cut++ {
		if recs, _, _ := Replay(log[:cut]); !reflect.DeepEqual(recs, plain) {
			t.Fatalf("cut at %d: replayed %d records, want the plain one alone", cut, len(recs))
		}
	}

	nested, err := AppendRecords([]byte(Magic), []Record{{Op: OpEdit, Seq: 1, Gen: 2, Edits: []Record{edit}}})
	if err != nil {
		t.Fatal(err)
	}
	if recs, valid, corr := Replay(nested); len(recs) != 0 || valid != int64(len(Magic)) || corr == nil {
		t.Fatalf("nested edit: %d records, valid %d, corruption %v; want it refused", len(recs), valid, corr)
	}
}
