package wire

import (
	"flag"
	"reflect"
	"strings"
	"testing"

	"mobilegossip"
)

// TestTopologyFlagsCoverEveryField is what makes TopologyFlags the single
// place a topology knob reaches the command line: with every registered
// flag set to a non-default value, every Topology field must be non-zero
// except the recorded no-flag list (grid and barbell shapes are reachable
// from scenario files only). A field added with neither a flag nor a list
// entry fails here.
func TestTopologyFlagsCoverEveryField(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	topology := TopologyFlags(fs)
	var args []string
	fs.VisitAll(func(f *flag.Flag) {
		value := "7" // parses as int and float, and is no flag's default
		switch f.Name {
		case "graph":
			value = "levy"
		case "adversary":
			value = "cutrich"
		}
		args = append(args, "-"+f.Name, value)
	})
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	topo, err := topology()
	if err != nil {
		t.Fatal(err)
	}
	noFlag := []string{"Topology.Rows", "Topology.Cols", "Topology.CliqueSize", "Topology.PathLen"}
	if zero := zeroFields(reflect.ValueOf(topo), "Topology"); !reflect.DeepEqual(zero, noFlag) {
		t.Errorf("Topology fields no flag sets = %v, want exactly %v", zero, noFlag)
	}
}

func TestTopologyFlagsDefaultsAndErrors(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	topology := TopologyFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	want := mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 4}
	if topo, err := topology(); err != nil || topo != want {
		t.Errorf("unset flags describe %+v, %v; want %+v", topo, err, want)
	}
	for flagName, valid := range map[string]string{"graph": "waypoint", "adversary": "cutrich"} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		topology := TopologyFlags(fs)
		if err := fs.Parse([]string{"-" + flagName, "nope"}); err != nil {
			t.Fatal(err)
		}
		if _, err := topology(); err == nil || !strings.Contains(err.Error(), valid) {
			t.Errorf("-%s nope: %v, want an error listing the valid names", flagName, err)
		}
	}
}
