package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	out := `goos: linux
BenchmarkEngineRound/seq_n256_k256-8   	     500	     94619 ns/op	       0 B/op	       0 allocs/op
BenchmarkEngineRound/sat_n4096_k256-2  	     500	   1234.5 ns/op	      96 B/op	       3 allocs/op
BenchmarkNoMem 	     10	     7 ns/op
PASS
ok  	mobilegossip	1.2s
`
	rows, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := []benchRow{
		{Name: "EngineRound/seq_n256_k256", Iterations: 500, NsPerOp: 94619},
		{Name: "EngineRound/sat_n4096_k256", Iterations: 500, NsPerOp: 1234.5, BytesPerOp: 96, AllocsPerOp: 3},
		{Name: "NoMem", Iterations: 10, NsPerOp: 7},
	}
	if len(rows) != len(want) {
		t.Fatalf("parsed %d rows, want %d: %+v", len(rows), len(want), rows)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, rows[i], want[i])
		}
	}
}

// gate runs benchgate over fresh bench output against a baseline of the
// given rows and extra flags, returning run's error.
func gate(t *testing.T, fresh string, baseline []benchRow, extra ...string) error {
	t.Helper()
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(in, []byte(fresh), 0o644); err != nil {
		t.Fatal(err)
	}
	args := append([]string{"-input", in}, extra...)
	if baseline != nil {
		buf, err := json.Marshal(benchJSON{Schema: "mobilegossip/bench-core-v1", Rows: baseline})
		if err != nil {
			t.Fatal(err)
		}
		base := filepath.Join(dir, "base.json")
		if err := os.WriteFile(base, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		args = append(args, "-baseline", base)
	}
	return run(args)
}

func TestGateVerdicts(t *testing.T) {
	line := func(name, ns, allocs string) string {
		return "Benchmark" + name + "-4 500 " + ns + " ns/op 0 B/op " + allocs + " allocs/op\n"
	}
	a := benchRow{Name: "A", NsPerOp: 1000}
	b := benchRow{Name: "B", NsPerOp: 1000, AllocsPerOp: 10}
	for _, tc := range []struct {
		name  string
		fresh string
		base  []benchRow
		flags []string
		pass  bool
	}{
		{"within tolerance", line("A", "1149", "0"), []benchRow{a}, nil, true},
		{"ns/op over tolerance", line("A", "1151", "0"), []benchRow{a}, nil, false},
		{"faster is fine", line("A", "10", "0"), []benchRow{a}, nil, true},
		{"tolerance flag widens", line("A", "1400", "0"), []benchRow{a}, []string{"-tolerance", "0.5"}, true},
		{"0-alloc baseline rejects one alloc", line("A", "1000", "1"), []benchRow{a}, nil, false},
		{"allocs within tolerance", line("B", "1000", "11"), []benchRow{b}, nil, true},
		{"allocs over tolerance", line("B", "1000", "12"), []benchRow{b}, nil, false},
		{"baseline row missing from fresh run", line("A", "1000", "0"), []benchRow{a, b}, nil, false},
		{"fresh row missing from baseline", line("A", "1000", "0") + line("B", "1000", "10"), []benchRow{a}, nil, false},
		{"ratio pin holds", line("A", "1000", "0") + line("B", "1250", "10"), nil, []string{"-ratio", "B,A,1.25"}, true},
		{"ratio pin fails", line("A", "1000", "0") + line("B", "1251", "10"), nil, []string{"-ratio", "B,A,1.25"}, false},
		{"ratio pin with missing row", line("A", "1000", "0"), nil, []string{"-ratio", "B,A,1.25"}, false},
		{"ratio pin fails beside a passing baseline", line("A", "1000", "0") + line("B", "2000", "10"),
			[]benchRow{a, {Name: "B", NsPerOp: 2000, AllocsPerOp: 10}}, []string{"-ratio", "B,A,1.25"}, false},
		{"no benchmark lines", "PASS\n", []benchRow{a}, nil, false},
	} {
		err := gate(t, tc.fresh, tc.base, tc.flags...)
		if (err == nil) != tc.pass {
			t.Errorf("%s: err = %v, want pass=%v", tc.name, err, tc.pass)
		}
	}
}

func TestParseRatioRejectsMalformed(t *testing.T) {
	for _, s := range []string{"A,B", "A,B,0", "A,B,x", ",B,1.5", "A,,1.5", "A,B,1,2"} {
		if _, err := parseRatio(s); err == nil {
			t.Errorf("parseRatio(%q) accepted a malformed pin", s)
		}
	}
	rc, err := parseRatio(" A , B , 1.25 ")
	if err != nil || rc != (ratioCheck{name: "A", base: "B", max: 1.25}) {
		t.Fatalf("parseRatio = %+v, %v", rc, err)
	}
}

func TestBaselineSchemaChecked(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	base := filepath.Join(dir, "base.json")
	if err := os.WriteFile(in, []byte("BenchmarkA 500 1000 ns/op\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ doc, want string }{
		{`{"schema":"mobilegossip/bench-core-v9","benchmarks":[{"name":"A","ns_per_op":1000}]}`, "unsupported schema"},
		{`{"schema":"mobilegossip/bench-v2","points":[]}`, "unsupported schema"},
		{`{"schema":"mobilegossip/bench-core-v1","benchmarks":[]}`, "no benchmark rows"},
	} {
		if err := os.WriteFile(base, []byte(tc.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run([]string{"-input", in, "-baseline", base})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("baseline %s: got %v, want an error containing %q", tc.doc, err, tc.want)
		}
	}
}

func TestOutRecordsFreshRows(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "fresh.json")
	in := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(in, []byte("BenchmarkA-8 500 1000 ns/op 8 B/op 1 allocs/op\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-input", in, "-out", out, "-benchtime", "500x"}); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc benchJSON
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	want := benchRow{Name: "A", Iterations: 500, NsPerOp: 1000, BytesPerOp: 8, AllocsPerOp: 1}
	if doc.Schema != "mobilegossip/bench-core-v1" || doc.Benchtime != "500x" || len(doc.Rows) != 1 || doc.Rows[0] != want {
		t.Fatalf("recorded %+v", doc)
	}
}
