package record

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"testing"
)

func frameStream(batches []Batch) []byte {
	var buf []byte
	for _, b := range batches {
		buf = AppendFrame(buf, b)
	}
	return buf
}

func TestFrameRoundTrip(t *testing.T) {
	batches := []Batch{
		{{A: 1, B: 2, X: 3.5, Tag: 4}, {A: -9}},
		{}, // empty frames are valid (section markers)
		{{A: 7, B: 7, X: -0.25, Tag: 255}},
	}
	buf := frameStream(batches)
	fr := NewFrameReader(bytes.NewReader(buf))
	for i, want := range batches {
		got, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("frame %d: %d records, want %d", i, len(got), len(want))
		}
		for j := range want {
			if !got[j].Equal(want[j]) {
				t.Fatalf("frame %d record %d: %v != %v", i, j, got[j], want[j])
			}
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
	if fr.ValidOffset() != int64(len(buf)) {
		t.Fatalf("ValidOffset %d, want %d", fr.ValidOffset(), len(buf))
	}
}

func TestFrameTornTailTruncation(t *testing.T) {
	good := frameStream([]Batch{{{A: 1}}, {{A: 2}, {A: 3}}})
	torn := AppendFrame(nil, Batch{{A: 4}})
	for cut := 1; cut < len(torn); cut++ {
		buf := append(append([]byte(nil), good...), torn[:cut]...)
		fr := NewFrameReader(bytes.NewReader(buf))
		n := 0
		var err error
		for {
			var b Batch
			b, err = fr.Next()
			if err != nil {
				break
			}
			n += len(b)
		}
		if !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("cut %d: err %v, want ErrCorruptFrame", cut, err)
		}
		if n != 3 {
			t.Fatalf("cut %d: decoded %d records from the valid prefix, want 3", cut, n)
		}
		if fr.ValidOffset() != int64(len(good)) {
			t.Fatalf("cut %d: ValidOffset %d, want %d", cut, fr.ValidOffset(), len(good))
		}
	}
}

func TestFrameFlippedCRC(t *testing.T) {
	buf := frameStream([]Batch{{{A: 1, B: 2}}})
	for bit := 0; bit < 8*len(buf); bit++ {
		flipped := append([]byte(nil), buf...)
		flipped[bit/8] ^= 1 << (bit % 8)
		fr := NewFrameReader(bytes.NewReader(flipped))
		if b, err := fr.Next(); err == nil {
			// The only acceptable silent flip is none: any bit of the
			// header or payload participates in length/CRC validation.
			if len(b) != 1 || !b[0].Equal(buf2rec(buf)) {
				t.Fatalf("bit %d: corrupt frame decoded to %v", bit, b)
			}
			t.Fatalf("bit %d: flip accepted", bit)
		} else if !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("bit %d: err %v, want ErrCorruptFrame", bit, err)
		}
	}
}

func buf2rec(frame []byte) Record {
	r, _, _ := Decode(frame[FrameHeaderSize+1:])
	return r
}

func TestFrameOversizeLengthPrefix(t *testing.T) {
	// A frame claiming a 2 GiB payload of 1<<30 records must error on the
	// short read, not allocate gigabytes: the payload buffer grows only
	// as bytes arrive.
	var hdr [FrameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[:4], 1<<31)
	in := binary.AppendUvarint(hdr[:], 1<<30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fr := NewFrameReader(bytes.NewReader(in))
	if _, err := fr.Next(); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("oversize length: %v, want ErrCorruptFrame", err)
	}
	if _, err := DecodeFrames(in); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("oversize length in memory: %v, want ErrCorruptFrame", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoding a %d-byte input allocated %d bytes", len(in), grew)
	}
}

// TestDecodeFramesRejectsHugeCount: a payload whose uvarint record count
// is 2⁶⁴−1 (negative as an int) fails before it can size the decode
// slice, and so does a count merely larger than the records present.
func TestDecodeFramesRejectsHugeCount(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	if _, err := DecodeFrames(withPayload(huge)); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("a record count past the payload: %v, want ErrCorruptFrame", err)
	}
	p := EncodeBatch(nil, Batch{{A: 1}, {A: 2}})
	p[0] = 3
	if _, err := DecodeFrames(withPayload(p)); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("a record count past the records present: %v, want ErrCorruptFrame", err)
	}
}

// withPayload frames an arbitrary payload with a valid length and CRC,
// so the payload decoder itself is what must reject it.
func withPayload(p []byte) []byte {
	var hdr [FrameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(p)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(p))
	return append(hdr[:], p...)
}

// FuzzDecodeFrames: whatever run of frames decodes in place re-frames, as
// one batch, to bytes that decode to the identical records, and the
// streaming reader agrees with the in-place decoder on every input.
func FuzzDecodeFrames(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, nil))
	f.Add(withPayload([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}))
	f.Add(frameStream([]Batch{{{A: 7}, {A: -1, B: 3, X: 0.5, Tag: 2}, {A: math.MaxInt64, X: math.Inf(-1)}}, {}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeFrames(data)
		var streamed []Record
		fr := NewFrameReader(bytes.NewReader(data))
		var serr error
		for {
			b, err := fr.Next()
			if err != nil {
				serr = err
				break
			}
			streamed = append(streamed, b...)
		}
		if (err == nil) != (serr == io.EOF) {
			t.Fatalf("in-place decode err %v, streaming reader err %v", err, serr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeBatch(nil, streamed), EncodeBatch(nil, recs)) {
			t.Fatalf("streaming reader decoded %v, in-place %v", streamed, recs)
		}
		again, err := DecodeFrames(AppendFrame(nil, recs))
		if err != nil {
			t.Fatalf("re-framed records do not decode: %v", err)
		}
		if !bytes.Equal(EncodeBatch(nil, again), EncodeBatch(nil, recs)) {
			t.Fatalf("round trip changed the records: %v -> %v", recs, again)
		}
	})
}

// FuzzFrameReader feeds arbitrary bytes through the frame decoder: it
// must never panic or over-allocate, and whatever valid prefix it
// accepts must re-encode to the identical bytes.
func FuzzFrameReader(f *testing.F) {
	f.Add(frameStream([]Batch{{{A: 1, B: 2, X: 3, Tag: 4}}, {}}))
	f.Add(frameStream([]Batch{{{A: -1}, {A: 5, X: 0.5}}})[:10])
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		var reenc []byte
		for {
			b, err := fr.Next()
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrCorruptFrame) {
					t.Fatalf("unexpected error class: %v", err)
				}
				break
			}
			reenc = AppendFrame(reenc, b)
		}
		off := fr.ValidOffset()
		if off > int64(len(data)) {
			t.Fatalf("ValidOffset %d beyond input %d", off, len(data))
		}
		if !bytes.Equal(reenc, data[:off]) {
			t.Fatalf("valid prefix does not re-encode identically")
		}
	})
}
