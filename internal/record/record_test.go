package record

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Record{
		{},
		{A: 1, B: 2, X: 3.5, Tag: 4},
		{A: -1, B: -1 << 62, X: math.Inf(1), Tag: 255},
		{A: math.MaxInt64, B: math.MinInt64, X: -0.0, Tag: 0},
	}
	for _, want := range cases {
		buf := want.Encode(nil)
		if len(buf) < 2 || len(buf) > 30 {
			t.Fatalf("encoded size = %d, want 2..30", len(buf))
		}
		got, rest, err := Decode(buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(rest) != 0 {
			t.Fatalf("decode left %d bytes", len(rest))
		}
		if !got.Equal(want) {
			t.Errorf("round trip: got %v want %v", got, want)
		}
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(a, b int64, x float64, tag uint8) bool {
		in := Record{A: a, B: b, X: x, Tag: tag}
		out, rest, err := Decode(in.Encode(nil))
		if err != nil || len(rest) != 0 {
			return false
		}
		// NaN compares unequal to itself; compare bit patterns instead.
		return out.A == in.A && out.B == in.B && out.Tag == in.Tag &&
			math.Float64bits(out.X) == math.Float64bits(in.X)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeShortInput(t *testing.T) {
	full := Record{A: 300, B: 2, X: 1.5, Tag: 7}.Encode(nil)
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := Decode(full[:cut]); err == nil {
			t.Errorf("want error for input cut at %d of %d bytes", cut, len(full))
		}
	}
	if _, _, err := DecodeBatch(nil); err == nil {
		t.Error("want error for a missing batch count")
	}
	// Header claims one record but no payload follows.
	if _, _, err := DecodeBatch([]byte{1, 0}); err == nil {
		t.Error("want error for truncated batch body")
	}
}

// TestCompactSizes pins the layout: small graph records take a few
// bytes, and every field costs nothing while it is zero.
func TestCompactSizes(t *testing.T) {
	cases := []struct {
		r    Record
		size int
	}{
		{Record{}, 2},
		{Record{A: 5, B: 9}, 3},
		{Record{A: 300, B: 1}, 4},
		{Record{A: 1, X: 0.5}, 10},
		{Record{A: 1, Tag: 3}, 3},
		{Record{A: -1}, 11},
		{Record{A: 1, B: 2, X: 3, Tag: 4}, 12},
	}
	for _, c := range cases {
		if got := len(c.r.Encode(nil)); got != c.size {
			t.Errorf("%v encodes to %d bytes, want %d", c.r, got, c.size)
		}
	}
}

// TestDecodeRejectsNonCanonical: every byte string Decode accepts is the
// one Encode produces, so an unknown flag, a flagged zero field or an
// overlong varint is malformed.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	for _, in := range [][]byte{
		{0x08, 1},                         // unknown flag bit
		{hasB, 1, 0},                      // B flagged but zero
		{hasTag, 1, 0},                    // Tag flagged but zero
		{0, 0x81, 0x00},                   // A = 1 as an overlong varint
		{hasX, 1, 0, 0, 0, 0, 0, 0, 0, 0}, // X flagged but +0.0
	} {
		if r, _, err := Decode(in); err == nil {
			t.Errorf("%x decoded to %v", in, r)
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	in := Batch{{A: 1}, {B: 2}, {X: 3}, {Tag: 4}}
	buf := EncodeBatch(nil, in)
	out, rest, err := DecodeBatch(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 || len(out) != len(in) {
		t.Fatalf("batch round trip mismatch: %d records, %d rest", len(out), len(rest))
	}
	for i := range in {
		if !out[i].Equal(in[i]) {
			t.Errorf("record %d: got %v want %v", i, out[i], in[i])
		}
	}
}

func TestEmptyBatchRoundTrip(t *testing.T) {
	out, rest, err := DecodeBatch(EncodeBatch(nil, nil))
	if err != nil || len(rest) != 0 || len(out) != 0 {
		t.Fatalf("empty batch: out=%v rest=%v err=%v", out, rest, err)
	}
}

func TestPartitionOfStable(t *testing.T) {
	// The same key must always land in the same partition.
	for k := int64(-100); k < 100; k++ {
		p1 := PartitionOf(k, 7)
		p2 := PartitionOf(k, 7)
		if p1 != p2 {
			t.Fatalf("partition not stable for key %d", k)
		}
		if p1 < 0 || p1 >= 7 {
			t.Fatalf("partition out of range: %d", p1)
		}
	}
	if PartitionOf(12345, 1) != 0 {
		t.Error("single partition must map to 0")
	}
	if PartitionOf(12345, 0) != 0 {
		t.Error("degenerate partition count must map to 0")
	}
}

func TestPartitionOfSpread(t *testing.T) {
	// Sequential keys should spread across partitions reasonably evenly.
	const n, parts = 10000, 8
	counts := make([]int, parts)
	for k := int64(0); k < n; k++ {
		counts[PartitionOf(k, parts)]++
	}
	for p, c := range counts {
		if c < n/parts/2 || c > n/parts*2 {
			t.Errorf("partition %d holds %d of %d records; poor spread", p, c, n)
		}
	}
}

func TestHash64Distinct(t *testing.T) {
	seen := map[uint64]int64{}
	for k := int64(0); k < 100000; k++ {
		h := Hash64(k)
		if prev, dup := seen[h]; dup {
			t.Fatalf("hash collision between %d and %d", prev, k)
		}
		seen[h] = k
	}
}

func TestLessIsStrictWeakOrder(t *testing.T) {
	recs := []Record{
		{A: 2}, {A: 1, B: 5}, {A: 1, B: 3}, {A: 1, B: 3, X: -1},
		{A: 1, B: 3, X: -1, Tag: 9}, {},
	}
	sort.Slice(recs, func(i, j int) bool { return Less(recs[i], recs[j]) })
	for i := 1; i < len(recs); i++ {
		if Less(recs[i], recs[i-1]) {
			t.Fatalf("sorted output violates order at %d: %v before %v", i, recs[i-1], recs[i])
		}
	}
	if Less(recs[0], recs[0]) {
		t.Error("Less must be irreflexive")
	}
}

func TestKeySelectors(t *testing.T) {
	r := Record{A: 10, B: 20}
	if KeyA(r) != 10 || KeyB(r) != 20 {
		t.Errorf("key selectors wrong: %d %d", KeyA(r), KeyB(r))
	}
}
