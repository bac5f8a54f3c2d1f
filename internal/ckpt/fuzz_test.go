package ckpt

// Native Go fuzz targets for the checkpoint substrate: whatever bytes a
// Reader is fed — truncated checkpoints, bit-flipped sections, hostile
// length prefixes — every decode must end in a clean value or a sticky
// error, never a panic or an attacker-sized allocation. CI runs these for a
// short -fuzztime smoke (see the fuzz job); the committed corpus under
// testdata/fuzz seeds both.

import (
	"bytes"
	"testing"
)

// FuzzReaderRaw drives a fixed, representative decode schedule (one of
// every value shape the real checkpoint layers use) over arbitrary bytes.
func FuzzReaderRaw(f *testing.F) {
	// A well-formed stream for the schedule below.
	var good bytes.Buffer
	w := NewWriter(&good)
	w.Section("hdr")
	w.U64(42)
	w.I64(-7)
	w.Bool(true)
	w.F64(3.5)
	w.String("token")
	w.U64s([]uint64{1, 2, 3})
	w.Ints([]int{-1, 0, 1})
	w.Int32s([]int32{5, -5})
	w.F64s([]float64{0.5})
	w.Bools([]bool{true, false})
	w.Bytes([]byte{0xde, 0xad})
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte{})
	f.Add([]byte("\x03hdr"))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		r.Section("hdr")
		_ = r.U64()
		_ = r.I64()
		_ = r.Bool()
		_ = r.F64()
		_ = r.String()
		_ = r.U64s()
		_ = r.Ints()
		var seed32 [2]int32
		r.Int32sInto(seed32[:])
		var seedF [1]float64
		r.F64sInto(seedF[:])
		var seedB [2]bool
		r.BoolsInto(seedB[:])
		_ = r.Bytes()
		var fixed [3]uint64
		r.U64sInto(fixed[:])
		var fixedI [2]int
		r.IntsInto(fixedI[:])
		var fixedF [2]float64
		r.F64sInto(fixedF[:])
		var fixedB [2]bool
		r.BoolsInto(fixedB[:])
		var fixed32 [2]int32
		r.Int32sInto(fixed32[:])
		// The only acceptable outcomes: clean error, or a full decode of a
		// stream that really was well-formed. Never a panic (the fuzzer
		// catches those) — and errors must stick.
		if err := r.Err(); err != nil {
			if r.U64() != 0 || r.String() != "" {
				t.Fatal("reads after a sticky error returned non-zero values")
			}
		}
	})
}

// FuzzRoundTrip interprets the fuzz input as a little program of write
// instructions, encodes it with Writer, decodes with Reader in the same
// order, and requires exact value fidelity.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6})
	f.Add([]byte("\x00\xff\x00\xff\x07\x07"))
	f.Add(bytes.Repeat([]byte{3}, 40))

	f.Fuzz(func(t *testing.T, prog []byte) {
		// Decode the program: each byte picks an op, subsequent bytes feed
		// its value. Keep a typed log of what was written.
		type entry struct {
			op byte
			u  uint64
			i  int64
			fv float64
			s  string
			us []uint64
			bs []bool
		}
		var log []entry
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for pc := 0; pc+1 < len(prog) && len(log) < 64; pc += 2 {
			op, v := prog[pc]%6, prog[pc+1]
			e := entry{op: op}
			switch op {
			case 0:
				e.u = uint64(v) * 0x9e3779b9
				w.U64(e.u)
			case 1:
				e.i = int64(int8(v)) * 1e9
				w.I64(e.i)
			case 2:
				e.fv = float64(int8(v)) / 3
				w.F64(e.fv)
			case 3:
				e.s = string(bytes.Repeat([]byte{v}, int(v)%17))
				w.String(e.s)
			case 4:
				for j := byte(0); j < v%9; j++ {
					e.us = append(e.us, uint64(v)<<j)
				}
				w.U64s(e.us)
			case 5:
				for j := byte(0); j < v%5; j++ {
					e.bs = append(e.bs, (v>>j)&1 == 1)
				}
				w.Bools(e.bs)
			}
			log = append(log, e)
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("writer error on clean stream: %v", err)
		}

		r := NewReader(bytes.NewReader(buf.Bytes()))
		for _, e := range log {
			switch e.op {
			case 0:
				if got := r.U64(); got != e.u {
					t.Fatalf("U64 = %d, want %d", got, e.u)
				}
			case 1:
				if got := r.I64(); got != e.i {
					t.Fatalf("I64 = %d, want %d", got, e.i)
				}
			case 2:
				if got := r.F64(); got != e.fv {
					t.Fatalf("F64 = %v, want %v", got, e.fv)
				}
			case 3:
				if got := r.String(); got != e.s {
					t.Fatalf("String = %q, want %q", got, e.s)
				}
			case 4:
				got := r.U64s()
				if len(got) != len(e.us) {
					t.Fatalf("U64s len %d, want %d", len(got), len(e.us))
				}
				for i := range got {
					if got[i] != e.us[i] {
						t.Fatalf("U64s[%d] = %d, want %d", i, got[i], e.us[i])
					}
				}
			case 5:
				got := make([]bool, len(e.bs))
				r.BoolsInto(got)
				for i := range got {
					if got[i] != e.bs[i] {
						t.Fatalf("BoolsInto[%d] = %v, want %v", i, got[i], e.bs[i])
					}
				}
			}
		}
		if err := r.Err(); err != nil {
			t.Fatalf("round trip errored: %v", err)
		}
	})
}
