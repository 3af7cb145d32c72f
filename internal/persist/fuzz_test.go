package persist

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"cardirect/internal/config"
)

// FuzzDecodeSnapshot feeds the binary snapshot decoder, which reads
// crash-damaged files and a replica's bootstrap bytes, arbitrary input: it
// must never panic, and an image it accepts must re-encode and decode to the
// same image. Each input is tried a second time with its trailing CRC
// recomputed, so the fuzzer reaches the payload decoder behind the checksum.
func FuzzDecodeSnapshot(f *testing.F) {
	greece := EncodeSnapshot(config.Greece())
	f.Add(greece)
	f.Add(EncodeSnapshotAt(config.Greece(), Position{Epoch: "0123456789abcdef", Seq: 7, Gen: 9, Pct: true}))
	for _, n := range []int{0, 4, binHeaderLen, binHeaderLen + 4, len(greece) / 2, len(greece) - 1} {
		f.Add(greece[:n])
	}
	for _, bit := range []int{3, 8*5 + 1, 8*binHeaderLen + 2, 4 * len(greece), 8*len(greece) - 1} {
		flipped := bytes.Clone(greece)
		flipped[bit/8] ^= 1 << (bit % 8)
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSnapshotRoundTrip(t, data)
		if len(data) >= binHeaderLen+4 {
			checkSnapshotRoundTrip(t, encodeWithCRC(data))
		}
	})
}

// checkSnapshotRoundTrip fails when DecodeSnapshot accepts data and the
// image does not survive EncodeSnapshot and a second decode. The images
// compare as reflect.DeepEqual, except that a NaN coordinate equals a NaN.
func checkSnapshotRoundTrip(t *testing.T, data []byte) {
	t.Helper()
	img, err := DecodeSnapshot(data)
	if err != nil {
		return
	}
	back, err := DecodeSnapshot(EncodeSnapshot(img))
	if err != nil {
		t.Fatalf("an accepted snapshot re-encodes to one that does not decode: %v", err)
	}
	if !reflect.DeepEqual(back, img) && fmt.Sprintf("%#v", back) != fmt.Sprintf("%#v", img) {
		t.Fatalf("re-encoding changed the image:\n got: %#v\nwant: %#v", back, img)
	}
}
