package record

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Framed batch serialization: the unit of durable storage shared by the
// live-view write-ahead log and the streaming checkpoint format. A frame
// wraps one EncodeBatch payload with a byte-length prefix and a CRC32 so
// a reader can (a) skip through a log without decoding, (b) detect torn
// tails — a crash mid-append leaves a frame whose length, checksum, or
// record count no longer agree — and (c) reject bit flips that a plain
// length-prefixed format would decode into garbage records.
//
//	frame := payloadLen uint32 | crc32(payload) uint32 | payload
//	payload := EncodeBatch(batch)   (count uint32 | count records)

// FrameHeaderSize is the number of bytes preceding a frame's payload.
const FrameHeaderSize = 8

// ErrCorruptFrame reports a frame that cannot be trusted: a truncated
// header or payload, a checksum mismatch, or a length prefix inconsistent
// with the payload's record count. Readers treat the first corrupt frame
// as the end of the valid prefix (a torn tail).
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

// frameAllocHint caps the capacity a frame decode allocates up front; a
// frame claiming more records grows by append as records actually arrive,
// so a corrupt length prefix cannot force a large allocation.
const frameAllocHint = 4096

// FrameReader decodes a stream of frames through a fixed-size buffered
// reader: memory per frame is bounded by the buffer plus the decoded
// batch, independent of the stream's length, and allocation is
// proportional to records actually present — never to a corrupt length
// prefix.
type FrameReader struct {
	br    *bufio.Reader
	valid int64
}

// frameReadBufSize is the fixed size of the buffered reader frames are
// streamed through (the same bound the spill replay path uses).
const frameReadBufSize = 64 << 10

// NewFrameReader wraps r for frame decoding. If r is already a
// *bufio.Reader it is used directly rather than double-buffered — the TCP
// transport interleaves its own message headers with frames on one
// connection, and both must consume from the same buffer to stay aligned.
func NewFrameReader(r io.Reader) *FrameReader {
	if br, ok := r.(*bufio.Reader); ok {
		return &FrameReader{br: br}
	}
	return &FrameReader{br: bufio.NewReaderSize(r, frameReadBufSize)}
}

// ValidOffset returns the number of bytes consumed by fully-valid frames:
// after Next returns an error, it is the truncation point that discards
// the torn tail while keeping every intact frame.
func (fr *FrameReader) ValidOffset() int64 { return fr.valid }

// Next decodes the next frame. It returns io.EOF at a clean end of the
// stream (no partial frame), and an error wrapping ErrCorruptFrame for a
// truncated, checksum-failing, or self-inconsistent frame.
func (fr *FrameReader) Next() (Batch, error) {
	var hdr [FrameHeaderSize]byte
	if _, err := io.ReadFull(fr.br, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: truncated header: %v", ErrCorruptFrame, err)
	}
	payloadLen := binary.LittleEndian.Uint32(hdr[:4])
	wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
	if payloadLen < 4 || (payloadLen-4)%EncodedSize != 0 {
		return nil, fmt.Errorf("%w: payload length %d is not a whole batch", ErrCorruptFrame, payloadLen)
	}
	crc := crc32.NewIEEE()
	var cnt [4]byte
	if _, err := io.ReadFull(fr.br, cnt[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated batch count: %v", ErrCorruptFrame, err)
	}
	crc.Write(cnt[:])
	n := binary.LittleEndian.Uint32(cnt[:])
	if n != (payloadLen-4)/EncodedSize {
		return nil, fmt.Errorf("%w: batch count %d disagrees with payload length %d", ErrCorruptFrame, n, payloadLen)
	}
	capHint := int(n)
	if capHint > frameAllocHint {
		capHint = frameAllocHint
	}
	out := make(Batch, 0, capHint)
	var rbuf [EncodedSize]byte
	for i := uint32(0); i < n; i++ {
		if _, err := io.ReadFull(fr.br, rbuf[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated record %d/%d: %v", ErrCorruptFrame, i, n, err)
		}
		crc.Write(rbuf[:])
		r, _, err := Decode(rbuf[:])
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorruptFrame, err)
		}
		out = append(out, r)
	}
	if got := crc.Sum32(); got != wantCRC {
		return nil, fmt.Errorf("%w: checksum %#x, frame claims %#x", ErrCorruptFrame, got, wantCRC)
	}
	fr.valid += int64(FrameHeaderSize) + int64(payloadLen)
	return out, nil
}

// DecodeFrames decodes a whole in-memory run of concatenated frames into
// one flat slice — the form solution shards travel in between hosts.
func DecodeFrames(frames []byte) ([]Record, error) {
	fr := NewFrameReader(bytes.NewReader(frames))
	var out []Record
	for {
		b, err := fr.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, b...)
	}
}
