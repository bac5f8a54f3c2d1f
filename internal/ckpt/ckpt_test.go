package ckpt

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestRoundTrip writes one value of every type and reads them back.
func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Section("header")
	w.U64(0)
	w.U64(1<<64 - 1)
	w.I64(-1)
	w.Int(42)
	w.Bool(true)
	w.Bool(false)
	w.F64(math.Pi)
	w.F64(0)
	w.Bytes([]byte{1, 2, 3})
	w.String("hello")
	w.U64s([]uint64{7, 8, 9})
	w.Ints([]int{-1, 0, 1})
	w.Int32s([]int32{-5, 5})
	w.F64s([]float64{1.5, -2.5})
	w.Bools([]bool{true, false, true})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	r.Section("header")
	if got := r.U64(); got != 0 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.U64(); got != 1<<64-1 {
		t.Errorf("U64 max = %d", got)
	}
	if got := r.I64(); got != -1 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Int(); got != 42 {
		t.Errorf("Int = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := r.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := r.F64(); got != 0 {
		t.Errorf("F64 zero = %v", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := r.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if got := r.U64s(); len(got) != 3 || got[2] != 9 {
		t.Errorf("U64s = %v", got)
	}
	if got := r.Ints(); len(got) != 3 || got[0] != -1 {
		t.Errorf("Ints = %v", got)
	}
	if got := r.Int32s(); len(got) != 2 || got[0] != -5 {
		t.Errorf("Int32s = %v", got)
	}
	if got := r.F64s(); len(got) != 2 || got[1] != -2.5 {
		t.Errorf("F64s = %v", got)
	}
	if got := r.Bools(); len(got) != 3 || !got[0] || got[1] {
		t.Errorf("Bools = %v", got)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestFieldsWalksBothWays: one layout function over Fields writes exactly
// what the plain Writer calls would, and reads it back into place.
func TestFieldsWalksBothWays(t *testing.T) {
	type block struct {
		i  int
		u  uint64
		f  float64
		b  bool
		is []int
	}
	layout := func(c Fields, v *block) {
		c.Section("block")
		c.Int(&v.i)
		c.U64(&v.u)
		c.F64(&v.f)
		c.Bool(&v.b)
		c.Ints(&v.is)
	}
	in := block{i: -42, u: 1<<64 - 1, f: math.Pi, b: true, is: []int{-1, 0, 1}}
	var viaFields, direct bytes.Buffer
	w := NewWriter(&viaFields)
	layout(w.Fields(), &in)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	w = NewWriter(&direct)
	w.Section("block")
	w.Int(in.i)
	w.U64(in.u)
	w.F64(in.f)
	w.Bool(in.b)
	w.Ints(in.is)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaFields.Bytes(), direct.Bytes()) {
		t.Errorf("Fields wrote %x, the Writer calls %x", viaFields.Bytes(), direct.Bytes())
	}

	var out block
	r := NewReader(&viaFields)
	layout(r.Fields(), &out)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if out.i != in.i || out.u != in.u || out.f != in.f || out.b != in.b || len(out.is) != 3 || out.is[0] != -1 {
		t.Errorf("read back %+v, wrote %+v", out, in)
	}
}

// TestSectionMismatch pins the loud-failure contract.
func TestSectionMismatch(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Section("alpha")
	w.U64(1)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	r.Section("beta")
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "alpha") {
		t.Fatalf("section mismatch err = %v", err)
	}
	// The error sticks: subsequent reads return zero values, no panic.
	if got := r.U64(); got != 0 {
		t.Errorf("read after error = %d", got)
	}
}

// TestTruncation: reads off the end fail instead of fabricating data.
func TestTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64s([]uint64{1, 2, 3})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-1]
	r := NewReader(bytes.NewReader(trunc))
	r.U64s()
	if r.Err() == nil {
		t.Fatal("truncated stream read without error")
	}
}

// TestHugeLengthRejected: a corrupt length prefix cannot drive a huge
// allocation.
func TestHugeLengthRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64(1 << 40) // plausible varint, absurd as a length
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	r.Bytes()
	if r.Err() == nil {
		t.Fatal("oversized length accepted")
	}
}
