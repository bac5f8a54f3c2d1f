package mobilegossip

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"mobilegossip/internal/ckpt"
)

// fillDistinct sets every data field under v to a distinct non-zero
// value: numbers (the enums included — the layout stores them as plain
// ints) count up from next, floats carry a .5, bools are true, pointers
// are allocated, slices get two elements.
func fillDistinct(v reflect.Value, next *int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(v.Field(i), next)
		}
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
		fillDistinct(v.Elem(), next)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fillDistinct(v.Index(0), next)
		fillDistinct(v.Index(1), next)
	case reflect.Int:
		*next++
		v.SetInt(int64(*next))
	case reflect.Uint64:
		*next++
		v.SetUint(uint64(*next))
	case reflect.Float64:
		*next++
		v.SetFloat(float64(*next) + 0.5)
	case reflect.Bool:
		v.SetBool(true)
	}
}

// zeroFields lists the (nested) struct fields of v still at their zero
// value.
func zeroFields(v reflect.Value, path string) []string {
	if v.Kind() != reflect.Struct {
		if v.IsZero() {
			return []string{path}
		}
		return nil
	}
	var out []string
	for i := 0; i < v.NumField(); i++ {
		out = append(out, zeroFields(v.Field(i), path+"."+v.Type().Field(i).Name)...)
	}
	return out
}

// configBlockV3 is the v3 config block for the fillDistinct Config: the
// per-slot proof that the layout still writes checkpoint format v3, which
// the mostly-zero-knob testdata/ckpt_v3_concurrent.bin fixture cannot
// give. It is the block the last hand-written serializer (writeConfig,
// deleted in favour of configLayout) produced, re-recorded once when
// Topology.Relabel was removed: that slot (byte 0x00 after adv_period's
// 0x36) is now always 0, and every fillDistinct number after it is one
// lower.
const configBlockV3 = "06636f6e6669670204060108020a0c020e1012140000000000002740181a1c1e" +
	"00000000008030402200000000008032402600000000008034402a0000000000" +
	"8036402e3032343600380000000000803d403c1f400000000000004041404648"

// TestConfigLayout: the one layout, walked as a writer then as a reader,
// is the identity on every field it carries, carries every field of
// Config/Topology/Assignment except the two documented ones, and writes
// the v3 bytes.
func TestConfigLayout(t *testing.T) {
	var cfg Config
	n := 0
	fillDistinct(reflect.ValueOf(&cfg).Elem(), &n)
	if zero := zeroFields(reflect.ValueOf(cfg), "Config"); len(zero) > 0 {
		t.Fatalf("fillDistinct left fields unset: %v", zero)
	}

	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	configLayout(w.Fields(), &cfg)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != configBlockV3 {
		t.Errorf("config block is not the v3 bytes:\n got %s\nwant %s", got, configBlockV3)
	}

	var back Config
	r := ckpt.NewReader(&buf)
	configLayout(r.Fields(), &back)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	leftOut := []string{"Config.EngineWorkers", "Config.Profile"}
	if zero := zeroFields(reflect.ValueOf(back), "Config"); !reflect.DeepEqual(zero, leftOut) {
		t.Errorf("fields without a checkpoint slot = %v, want exactly %v", zero, leftOut)
	}
	want := cfg
	want.EngineWorkers, want.Profile = 0, false
	if !reflect.DeepEqual(back, want) {
		t.Errorf("layout write → read is not the identity:\n got %+v\nwant %+v", back, want)
	}
}
