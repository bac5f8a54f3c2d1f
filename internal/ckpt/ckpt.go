// Package ckpt is the deterministic binary substrate under the public
// checkpoint/resume API: a Writer/Reader pair over a fixed little-endian +
// varint encoding, with named section markers so a corrupt or mismatched
// stream fails loudly at the section where it diverged instead of
// mis-decoding silently.
//
// Determinism matters beyond mere correctness: two checkpoints of the same
// simulation state must be byte-identical (callers serialize map-backed
// state in sorted key order), which lets tests and CI compare checkpoint
// files directly. Both ends carry a sticky error, so serialization code
// reads as straight-line field lists with a single Err() check at the end.
package ckpt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Writer serializes values to an io.Writer. The first error sticks; all
// subsequent writes are no-ops. Call Flush (or check Err) when done.
type Writer struct {
	w   *bufio.Writer
	err error
	buf [binary.MaxVarintLen64]byte
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Flush flushes buffered output and returns the first error.
func (w *Writer) Flush() error {
	if w.err == nil {
		w.err = w.w.Flush()
	}
	return w.err
}

// U64 writes an unsigned varint.
func (w *Writer) U64(v uint64) {
	if w.err != nil {
		return
	}
	n := binary.PutUvarint(w.buf[:], v)
	_, w.err = w.w.Write(w.buf[:n])
}

// I64 writes a signed (zig-zag) varint.
func (w *Writer) I64(v int64) {
	if w.err != nil {
		return
	}
	n := binary.PutVarint(w.buf[:], v)
	_, w.err = w.w.Write(w.buf[:n])
}

// Int writes an int as a signed varint.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool writes a bool as one byte.
func (w *Writer) Bool(v bool) {
	b := uint64(0)
	if v {
		b = 1
	}
	w.U64(b)
}

// F64 writes a float64 as its fixed 8-byte IEEE-754 bit pattern.
func (w *Writer) F64(v float64) {
	if w.err != nil {
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	_, w.err = w.w.Write(b[:])
}

// Bytes writes a length-prefixed byte slice.
func (w *Writer) Bytes(b []byte) {
	w.U64(uint64(len(b)))
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(b)
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) { w.Bytes([]byte(s)) }

// U64s writes a length-prefixed []uint64.
func (w *Writer) U64s(s []uint64) {
	w.U64(uint64(len(s)))
	for _, v := range s {
		w.U64(v)
	}
}

// Ints writes a length-prefixed []int.
func (w *Writer) Ints(s []int) {
	w.U64(uint64(len(s)))
	for _, v := range s {
		w.I64(int64(v))
	}
}

// Int32s writes a length-prefixed []int32.
func (w *Writer) Int32s(s []int32) {
	w.U64(uint64(len(s)))
	for _, v := range s {
		w.I64(int64(v))
	}
}

// F64s writes a length-prefixed []float64.
func (w *Writer) F64s(s []float64) {
	w.U64(uint64(len(s)))
	for _, v := range s {
		w.F64(v)
	}
}

// Bools writes a length-prefixed []bool.
func (w *Writer) Bools(s []bool) {
	w.U64(uint64(len(s)))
	for _, v := range s {
		w.Bool(v)
	}
}

// Section writes a named section marker. Readers verify it with their own
// Section call, pinning writer and reader to the same field schedule.
func (w *Writer) Section(name string) { w.String(name) }

// Reader deserializes values written by Writer, in the same order. The
// first error (I/O, overflow, or section mismatch) sticks, and subsequent
// reads return zero values.
type Reader struct {
	r   *bufio.Reader
	err error
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// Err returns the first error encountered.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// U64 reads an unsigned varint.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.fail(fmt.Errorf("ckpt: reading uvarint: %w", err))
		return 0
	}
	return v
}

// I64 reads a signed varint.
func (r *Reader) I64() int64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(r.r)
	if err != nil {
		r.fail(fmt.Errorf("ckpt: reading varint: %w", err))
		return 0
	}
	return v
}

// Int reads an int.
func (r *Reader) Int() int { return int(r.I64()) }

// Bool reads a bool.
func (r *Reader) Bool() bool { return r.U64() != 0 }

// F64 reads a fixed 8-byte float64.
func (r *Reader) F64() float64 {
	if r.err != nil {
		return 0
	}
	var b [8]byte
	if _, err := io.ReadFull(r.r, b[:]); err != nil {
		r.fail(fmt.Errorf("ckpt: reading float64: %w", err))
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

// maxLen bounds length prefixes so a corrupt stream fails the decode
// instead of being trusted blindly. Note the real allocation guard is
// below: slices grow incrementally (capped initial capacity), so even an
// in-range corrupt prefix costs at most the bytes actually present in the
// stream, never the claimed length.
const maxLen = 1 << 32

// growCap caps the capacity a variable-length read pre-allocates; larger
// slices grow as elements actually arrive from the stream, so a corrupt
// length prefix hits EOF long before it can commit real memory.
const growCap = 1 << 16

func (r *Reader) length() int {
	n := r.U64()
	if n > maxLen {
		r.fail(fmt.Errorf("ckpt: length prefix %d exceeds limit", n))
		return 0
	}
	return int(n)
}

// lengthInto reads a length prefix that must equal len(dst) — the form
// used when the destination's size is known from the run configuration,
// which both validates the stream early and avoids any allocation.
func (r *Reader) lengthInto(want int) bool {
	n := r.length()
	if r.err != nil {
		return false
	}
	if n != want {
		r.fail(fmt.Errorf("ckpt: slice of %d entries, destination holds %d", n, want))
		return false
	}
	return true
}

// Bytes reads a length-prefixed byte slice.
func (r *Reader) Bytes() []byte {
	n := r.length()
	if r.err != nil || n == 0 {
		return nil
	}
	b := make([]byte, 0, min(n, growCap))
	for len(b) < n {
		chunk := min(n-len(b), growCap)
		b = append(b, make([]byte, chunk)...)
		if _, err := io.ReadFull(r.r, b[len(b)-chunk:]); err != nil {
			r.fail(fmt.Errorf("ckpt: reading %d bytes: %w", n, err))
			return nil
		}
	}
	return b
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// U64s reads a length-prefixed []uint64.
func (r *Reader) U64s() []uint64 {
	n := r.length()
	if r.err != nil {
		return nil
	}
	s := make([]uint64, 0, min(n, growCap))
	for i := 0; i < n; i++ {
		v := r.U64()
		if r.err != nil {
			return nil
		}
		s = append(s, v)
	}
	return s
}

// U64sInto fills dst from a stream written by U64s; the serialized length
// must equal len(dst).
func (r *Reader) U64sInto(dst []uint64) {
	if !r.lengthInto(len(dst)) {
		return
	}
	for i := range dst {
		dst[i] = r.U64()
	}
}

// Ints reads a length-prefixed []int.
func (r *Reader) Ints() []int {
	n := r.length()
	if r.err != nil {
		return nil
	}
	s := make([]int, 0, min(n, growCap))
	for i := 0; i < n; i++ {
		v := int(r.I64())
		if r.err != nil {
			return nil
		}
		s = append(s, v)
	}
	return s
}

// IntsInto fills dst from a stream written by Ints; the serialized length
// must equal len(dst).
func (r *Reader) IntsInto(dst []int) {
	if !r.lengthInto(len(dst)) {
		return
	}
	for i := range dst {
		dst[i] = int(r.I64())
	}
}

// Int32sInto fills dst from a stream written by Int32s; the serialized
// length must equal len(dst).
func (r *Reader) Int32sInto(dst []int32) {
	if !r.lengthInto(len(dst)) {
		return
	}
	for i := range dst {
		dst[i] = int32(r.I64())
	}
}

// F64sInto fills dst from a stream written by F64s; the serialized length
// must equal len(dst).
func (r *Reader) F64sInto(dst []float64) {
	if !r.lengthInto(len(dst)) {
		return
	}
	for i := range dst {
		dst[i] = r.F64()
	}
}

// BoolsInto fills dst from a stream written by Bools; the serialized
// length must equal len(dst).
func (r *Reader) BoolsInto(dst []bool) {
	if !r.lengthInto(len(dst)) {
		return
	}
	for i := range dst {
		dst[i] = r.Bool()
	}
}

// Section reads a section marker and fails the stream if it does not match.
func (r *Reader) Section(name string) {
	got := r.String()
	if r.err == nil && got != name {
		r.fail(fmt.Errorf("ckpt: section %q, expected %q (checkpoint layout mismatch)", got, name))
	}
}

// Fields walks one field layout in either direction: over a Writer each
// call writes *p, over a Reader it reads into *p. A block laid out once
// against Fields is serialized and deserialized by the same statement
// list, so the two directions cannot disagree and the call order is the
// block's format.
type Fields interface {
	Section(name string)
	Int(p *int)
	U64(p *uint64)
	F64(p *float64)
	Bool(p *bool)
	Ints(p *[]int)
}

// Fields returns the writing walker over w.
func (w *Writer) Fields() Fields { return writeFields{w} }

// Fields returns the reading walker over r.
func (r *Reader) Fields() Fields { return readFields{r} }

type writeFields struct{ w *Writer }

func (f writeFields) Section(name string) { f.w.Section(name) }
func (f writeFields) Int(p *int)          { f.w.Int(*p) }
func (f writeFields) U64(p *uint64)       { f.w.U64(*p) }
func (f writeFields) F64(p *float64)      { f.w.F64(*p) }
func (f writeFields) Bool(p *bool)        { f.w.Bool(*p) }
func (f writeFields) Ints(p *[]int)       { f.w.Ints(*p) }

type readFields struct{ r *Reader }

func (f readFields) Section(name string) { f.r.Section(name) }
func (f readFields) Int(p *int)          { *p = f.r.Int() }
func (f readFields) U64(p *uint64)       { *p = f.r.U64() }
func (f readFields) F64(p *float64)      { *p = f.r.F64() }
func (f readFields) Bool(p *bool)        { *p = f.r.Bool() }
func (f readFields) Ints(p *[]int)       { *p = f.r.Ints() }
