package live

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/record"
)

// hugeCount is a 10-byte packRecords payload whose uvarint record count
// is 2⁶⁴−1: converted to int it is negative, so it must be rejected
// before it can size the decode slice ("makeslice: cap out of range").
var hugeCount = []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}

func TestUnpackRecordsRejectsHugeCount(t *testing.T) {
	if _, err := unpackRecords(hugeCount); err == nil {
		t.Fatal("a record count past the payload decoded without error")
	}
	// A count merely larger than the records present is malformed too.
	p := packRecords([]record.Record{{A: 1}, {A: 2}})
	p[0] = 3
	if _, err := unpackRecords(p); err == nil {
		t.Fatal("a record count past the records present decoded without error")
	}
}

func FuzzUnpackRecords(f *testing.F) {
	f.Add(hugeCount)
	f.Add([]byte{})
	f.Add(packRecords(nil))
	f.Add(packRecords([]record.Record{{A: 7}, {A: -1, B: 3, X: 0.5, Tag: 2}, {A: math.MaxInt64, X: math.Inf(-1)}}))
	f.Fuzz(func(t *testing.T, p []byte) {
		recs, err := unpackRecords(p)
		if err != nil {
			return
		}
		// Whatever decodes re-packs to a payload that decodes to the same
		// records (bit-exact: X compares by its encoding).
		again, err := unpackRecords(packRecords(recs))
		if err != nil {
			t.Fatalf("re-packed records do not decode: %v", err)
		}
		if !bytes.Equal(encode(again), encode(recs)) {
			t.Fatalf("round trip changed the records: %v -> %v", recs, again)
		}
	})
}

func encode(recs []record.Record) []byte {
	var out []byte
	for _, r := range recs {
		out = r.Encode(out)
	}
	return out
}
