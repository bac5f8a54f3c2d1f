package wire

import (
	"reflect"
	"testing"

	"mobilegossip"
	"mobilegossip/client"
)

// fill sets every data field under v to a distinct non-zero value:
// numbers count up from next, bools are true, strings are numbered, the
// root package's enums take a valid non-default member (they cross the
// wire by name). Pointers, slices and interfaces — Config's process-local
// fields, which have no wire form — stay zero.
func fill(v reflect.Value, next *int) {
	*next++
	switch v.Interface().(type) {
	case mobilegossip.Algorithm:
		v.Set(reflect.ValueOf(mobilegossip.AlgSimSharedBit))
		return
	case mobilegossip.TopologyKind:
		v.Set(reflect.ValueOf(mobilegossip.MobileLevy))
		return
	case mobilegossip.AdversaryKind:
		v.Set(reflect.ValueOf(mobilegossip.AdvCutRich))
		return
	case mobilegossip.RelabelKind:
		v.Set(reflect.ValueOf(mobilegossip.RelabelDegree))
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), next)
		}
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*next))
	case reflect.Uint64:
		v.SetUint(uint64(*next))
	case reflect.Float64:
		v.SetFloat(float64(*next) + 0.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("s" + string(rune('a'+*next%26)))
	}
}

// zeroFields lists the (nested) fields of v still at their zero value.
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

// TestConfigRoundTrip is what makes the codec the single place a field is
// added: a knob present on mobilegossip.Config/Topology but not carried
// by ConfigToWire/ConfigFromWire breaks the identity, and a wire field no
// Config field feeds stays zero.
func TestConfigRoundTrip(t *testing.T) {
	var cfg mobilegossip.Config
	n := 0
	fill(reflect.ValueOf(&cfg).Elem(), &n)
	cfg.EngineWorkers = 0 // accepted and ignored: it has no wire form

	req := ConfigToWire(cfg, true)
	if zero := zeroFields(reflect.ValueOf(req), "CreateRequest"); len(zero) > 0 {
		t.Errorf("ConfigToWire left wire fields unset: %v", zero)
	}
	back, err := ConfigFromWire(req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, cfg) {
		t.Errorf("ConfigFromWire(ConfigToWire(c)) != c:\n got %+v\nwant %+v", back, cfg)
	}
}

func TestResultToWireCarriesEveryField(t *testing.T) {
	var r mobilegossip.Result
	var info client.SessionInfo
	n := 0
	fill(reflect.ValueOf(&r).Elem(), &n)
	fill(reflect.ValueOf(&info).Elem(), &n)
	res := ResultToWire(r, info)
	res.Canceled = true // a run-job outcome, not a Result field
	if zero := zeroFields(reflect.ValueOf(res), "RunResult"); len(zero) > 0 {
		t.Errorf("ResultToWire left wire fields unset: %v", zero)
	}
	out := RunOutcome(res)
	if zero := zeroFields(reflect.ValueOf(out), "Run"); len(zero) > 0 {
		t.Errorf("RunOutcome left summary fields unset: %v", zero)
	}
}

func TestFromWireNamesBadEnums(t *testing.T) {
	good := ConfigToWire(mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit,
		Topology:  mobilegossip.Topology{Kind: mobilegossip.Complete},
	}, false)
	for name, mutate := range map[string]func(*client.CreateRequest){
		"algorithm": func(r *client.CreateRequest) { r.Algorithm = "nope" },
		"kind":      func(r *client.CreateRequest) { r.Topology.Kind = "nope" },
		"adversary": func(r *client.CreateRequest) { r.Topology.Adversary = "nope" },
		"relabel":   func(r *client.CreateRequest) { r.Topology.Relabel = "nope" },
	} {
		req := good
		mutate(&req)
		if _, err := ConfigFromWire(req); err == nil {
			t.Errorf("bad %s name accepted", name)
		}
	}
	// The omitted-on-the-wire spellings of the two optional enums.
	req := good
	req.Topology.Adversary, req.Topology.Relabel = "", ""
	if cfg, err := ConfigFromWire(req); err != nil || cfg.Topology.Adversary != mobilegossip.AdvNone || cfg.Topology.Relabel != mobilegossip.RelabelNone {
		t.Errorf("empty adversary/relabel should mean none: %+v, %v", cfg.Topology, err)
	}
}
