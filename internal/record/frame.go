package record

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Framed batch serialization: the unit of every record byte stream. A
// frame wraps one EncodeBatch payload with a byte-length prefix and a
// CRC32 so a reader can (a) skip through a log without decoding, (b)
// detect torn tails — a crash mid-append leaves a frame whose length,
// checksum, or record count no longer agree — and (c) reject bit flips
// that a plain length-prefixed format would decode into garbage records.
//
//	frame := payloadLen uint32 | crc32(payload) uint32 | payload
//	payload := EncodeBatch(batch)   (uvarint count | count compact records)

// FrameHeaderSize is the number of bytes preceding a frame's payload.
const FrameHeaderSize = 8

// ErrCorruptFrame reports a frame that cannot be trusted: a truncated
// header or payload, a checksum mismatch, or a payload that is not one
// whole batch. Readers treat the first corrupt frame as the end of the
// valid prefix (a torn tail).
var ErrCorruptFrame = errors.New("record: corrupt frame")

// AppendFrame appends the framed form of b to dst and returns the
// extended slice.
func AppendFrame(dst []byte, b Batch) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, FrameHeaderSize)...)
	dst = EncodeBatch(dst, b)
	payload := dst[start+FrameHeaderSize:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// appendPayload checks one frame's payload against its header and
// appends the batch it holds to dst.
func appendPayload(dst Batch, hdr, payload []byte) (Batch, error) {
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(hdr[4:]); got != want {
		return dst, fmt.Errorf("%w: checksum %#x, frame claims %#x", ErrCorruptFrame, got, want)
	}
	dst, rest, err := appendBatch(dst, payload)
	if err != nil || len(rest) != 0 {
		return dst, fmt.Errorf("%w: payload of %d bytes is not one whole batch", ErrCorruptFrame, len(payload))
	}
	return dst, nil
}

// DecodeFrames decodes a whole in-memory run of concatenated frames in
// place, straight into one flat slice — the form solution shards and
// control payloads travel in between hosts.
func DecodeFrames(frames []byte) ([]Record, error) {
	var out []Record
	for len(frames) > 0 {
		if len(frames) < FrameHeaderSize {
			return nil, fmt.Errorf("%w: truncated header", ErrCorruptFrame)
		}
		n := binary.LittleEndian.Uint32(frames)
		if uint64(n) > uint64(len(frames)-FrameHeaderSize) {
			return nil, fmt.Errorf("%w: payload of %d bytes, %d present", ErrCorruptFrame, n, len(frames)-FrameHeaderSize)
		}
		end := FrameHeaderSize + int(n)
		var err error
		if out, err = appendPayload(out, frames[:FrameHeaderSize], frames[FrameHeaderSize:end]); err != nil {
			return nil, err
		}
		frames = frames[end:]
	}
	return out, nil
}

// FrameReader decodes a stream of frames. Each payload is read into one
// reused buffer that grows only as bytes arrive, so memory is bounded by
// the largest frame actually present — never by a corrupt length prefix
// — and each frame is decoded by the same slice decoder DecodeFrames
// uses. It does no buffering of its own: wrap files in a bufio.Reader.
type FrameReader struct {
	r     io.Reader
	buf   []byte
	valid int64
}

// NewFrameReader reads frames from r. The TCP transport interleaves its
// own message headers with frames on one connection, so it hands over the
// *bufio.Reader it reads those headers from.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// ValidOffset returns the number of bytes consumed by fully-valid frames:
// after Next returns an error, it is the truncation point that discards
// the torn tail while keeping every intact frame.
func (fr *FrameReader) ValidOffset() int64 { return fr.valid }

// Next decodes the next frame. It returns io.EOF at a clean end of the
// stream (no partial frame), and an error wrapping ErrCorruptFrame for a
// truncated, checksum-failing, or self-inconsistent frame.
func (fr *FrameReader) Next() (Batch, error) {
	var hdr [FrameHeaderSize]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: truncated header: %v", ErrCorruptFrame, err)
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	buf := fr.buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), 64<<10))
		}
		m, err := io.ReadFull(fr.r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+m]
		if err != nil {
			fr.buf = buf
			return nil, fmt.Errorf("%w: truncated payload (%d of %d bytes): %v", ErrCorruptFrame, len(buf), n, err)
		}
	}
	fr.buf = buf
	b, err := appendPayload(nil, hdr[:], buf)
	if err != nil {
		return nil, err
	}
	fr.valid += int64(FrameHeaderSize + n)
	return b, nil
}
