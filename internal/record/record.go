// Package record defines the compact tuple model that flows through the
// dataflow engine, together with key selection, hashing, partitioning,
// comparison, and the one binary codec: compact varint records
// (Record.Encode) inside CRC32-checked frames (AppendFrame), which every
// byte stream — write-ahead log, snapshots, checkpoints, spill files, the
// TCP data plane and control payloads — reads and writes.
//
// The engine deliberately uses a fixed-shape value type rather than boxed
// interface values: the paper's Stratosphere runtime "stores records in
// serialized form to reduce memory consumption and object allocation
// overhead" (§6.1), and a flat value struct is the closest Go equivalent —
// records move through channels and hash tables without per-record heap
// allocation.
package record

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
)

// Record is a compact, fixed-shape tuple with two integer columns, one
// floating-point column, and a small tag byte. The meaning of the columns
// is defined by the dataflow that uses them; common layouts:
//
//	edge:            A=source vertex, B=target vertex
//	vertex/rank:     A=page id, X=rank
//	matrix entry:    A=target id (row), B=source id (column), X=probability
//	component pair:  A=vertex id, B=component id
//	message:         A=destination vertex, B=integer payload, X=float payload
type Record struct {
	A, B int64
	X    float64
	Tag  uint8
}

// EncodedSize is the accounting unit for one record's footprint — the
// bytes of its A, B, X and Tag fields — that spill budgets and admission
// control charge per resident record. It is not a wire size: Encode's
// compact form takes between 2 and 30 bytes.
const EncodedSize = 8 + 8 + 8 + 1

// The compact record layout: a flags byte, A as a uvarint, then B (uvarint),
// X (8 bytes, little-endian IEEE bits) and Tag (1 byte), each present only
// when its flag says it is non-zero. Graph records — edges, component
// labels, candidates — mostly carry small non-negative A and B and a zero
// X, so they shrink to a few bytes.
const (
	hasB   = 1 << 0
	hasX   = 1 << 1
	hasTag = 1 << 2
)

// Encode appends the compact form of r to dst and returns the extended
// slice. X is flagged by its bits, so -0.0 and every NaN round-trip
// exactly.
func (r Record) Encode(dst []byte) []byte {
	xb := math.Float64bits(r.X)
	var flags byte
	if r.B != 0 {
		flags |= hasB
	}
	if xb != 0 {
		flags |= hasX
	}
	if r.Tag != 0 {
		flags |= hasTag
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(r.A))
	if flags&hasB != 0 {
		dst = binary.AppendUvarint(dst, uint64(r.B))
	}
	if flags&hasX != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, xb)
	}
	if flags&hasTag != 0 {
		dst = append(dst, r.Tag)
	}
	return dst
}

// errMalformed reports bytes that are not a canonical Encode form:
// truncated, an unknown flag, a flagged field that is zero, or an
// overlong varint. Rejecting every non-canonical form keeps the encoding
// one-to-one, so decoded bytes re-encode identically.
var errMalformed = errors.New("record: malformed encoding")

// uvarint reads one minimally encoded uvarint from the front of src.
func uvarint(src []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 || (n > 1 && src[n-1] == 0) {
		return 0, src, errMalformed
	}
	return v, src[n:], nil
}

// Decode reads one Encode form from the front of src, returning the
// record and the remaining bytes.
func Decode(src []byte) (Record, []byte, error) {
	if len(src) == 0 || src[0]&^(hasB|hasX|hasTag) != 0 {
		return Record{}, src, errMalformed
	}
	flags, rest := src[0], src[1:]
	var r Record
	a, rest, err := uvarint(rest)
	if err != nil {
		return Record{}, src, err
	}
	r.A = int64(a)
	if flags&hasB != 0 {
		var b uint64
		if b, rest, err = uvarint(rest); err != nil || b == 0 {
			return Record{}, src, errMalformed
		}
		r.B = int64(b)
	}
	if flags&hasX != 0 {
		if len(rest) < 8 || binary.LittleEndian.Uint64(rest) == 0 {
			return Record{}, src, errMalformed
		}
		r.X = math.Float64frombits(binary.LittleEndian.Uint64(rest))
		rest = rest[8:]
	}
	if flags&hasTag != 0 {
		if len(rest) == 0 || rest[0] == 0 {
			return Record{}, src, errMalformed
		}
		r.Tag, rest = rest[0], rest[1:]
	}
	return r, rest, nil
}

// String renders the record for debugging.
func (r Record) String() string {
	return fmt.Sprintf("(A=%d B=%d X=%g T=%d)", r.A, r.B, r.X, r.Tag)
}

// KeyFunc extracts the grouping/joining key from a record.
type KeyFunc func(Record) int64

// Standard key selectors.
var (
	KeyA KeyFunc = func(r Record) int64 { return r.A }
	KeyB KeyFunc = func(r Record) int64 { return r.B }
)

// KeyID returns a comparable identity for a key selector: two KeyFunc
// values get the same id iff they are the same function value. The
// package-level selectors KeyA and KeyB are singletons, so plans built
// from them get precise physical-property matching in the optimizer.
func KeyID(k KeyFunc) uintptr {
	if k == nil {
		return 0
	}
	return reflect.ValueOf(k).Pointer()
}

// Hash64 mixes a 64-bit key into a well-distributed 64-bit hash
// (splitmix64 finalizer). It is the single hash used for partitioning and
// hash tables so that co-partitioned inputs land on the same partition.
func Hash64(k int64) uint64 {
	z := uint64(k) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// PartitionOf maps a key to one of n partitions.
func PartitionOf(k int64, n int) int {
	if n <= 1 {
		return 0
	}
	return int(Hash64(k) % uint64(n))
}

// Comparator establishes a total order between two records that share a
// key. Incremental iterations use it to decide, when a delta record would
// replace a solution-set record, which of the two is the CPO-successor
// state (§5.1: "the larger one will be reflected in S").
// It returns a negative number if a precedes b, zero if they are
// equivalent, and a positive number if a succeeds b.
type Comparator func(a, b Record) int

// Equal reports full structural equality of two records.
func (r Record) Equal(o Record) bool {
	return r.A == o.A && r.B == o.B && r.X == o.X && r.Tag == o.Tag
}

// Less orders records by (A, B, X, Tag); used by sort-based local
// strategies and deterministic test output.
func Less(a, b Record) bool {
	if a.A != b.A {
		return a.A < b.A
	}
	if a.B != b.B {
		return a.B < b.B
	}
	if a.X != b.X {
		return a.X < b.X
	}
	return a.Tag < b.Tag
}

// Batch is the unit of transfer between physical operators.
type Batch = []Record

// EncodeBatch appends the compact form of a batch — its record count as a
// uvarint, then each record's Encode form — to dst. It is the payload of
// a frame (AppendFrame).
func EncodeBatch(dst []byte, b Batch) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	for _, r := range b {
		dst = r.Encode(dst)
	}
	return dst
}

// DecodeBatch reads an EncodeBatch form from the front of src.
func DecodeBatch(src []byte) (Batch, []byte, error) {
	return appendBatch(nil, src)
}

// appendBatch decodes an EncodeBatch form from the front of src,
// appending its records to dst. The count reserves at most one slot per
// two bytes of src — the smallest record — so a corrupt count fails the
// decode instead of sizing a huge allocation.
func appendBatch(dst Batch, src []byte) (Batch, []byte, error) {
	n, rest, err := uvarint(src)
	if err != nil || n > uint64(len(rest))/2 {
		return dst, src, errMalformed
	}
	dst = slices.Grow(dst, int(n))
	for ; n > 0; n-- {
		var r Record
		if r, rest, err = Decode(rest); err != nil {
			return dst, src, err
		}
		dst = append(dst, r)
	}
	return dst, rest, nil
}
