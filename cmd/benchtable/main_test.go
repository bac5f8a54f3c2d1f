package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestListInIDOrder(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 26 {
		t.Fatalf("-list printed %d experiments, want 26:\n%s", len(lines), out.String())
	}
	var ids []string
	for _, l := range lines {
		ids = append(ids, strings.Fields(l)[0])
	}
	want := "E1 E2 E3 E4 E5 E6 E7 E8 E9 E10 E11 E12 E13 E14 E15 E16 E18 E19 E20 E21 E22 E23 E24 E25 E26 E27"
	if got := strings.Join(ids, " "); got != want {
		t.Fatalf("-list order:\n got %s\nwant %s", got, want)
	}
}

func TestUnknownExperimentNamed(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-exp", "e2,e99"}, &out)
	if err == nil || !strings.Contains(err.Error(), `"e99"`) {
		t.Fatalf("err = %v, want one naming \"e99\"", err)
	}
	if out.Len() != 0 {
		t.Fatalf("an unknown id must fail before any experiment runs; printed:\n%s", out.String())
	}
}

// TestCSVMatchesQuickGolden: -csv prints exactly the E2 and E7 blocks of
// the harness's pinned quick-size tables.
func TestCSVMatchesQuickGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-csv", "-exp", "e2,e7"}, &out); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "internal", "harness", "testdata", "quick.csv"))
	if err != nil {
		t.Fatal(err)
	}
	blocks := csvBlocks(string(golden))
	if want := blocks["E2"] + blocks["E7"]; out.String() != want {
		t.Fatalf("-csv -exp e2,e7 differs from quick.csv's blocks:\n got:\n%s\nwant:\n%s", out.String(), want)
	}
}

// csvBlocks splits a multi-table CSV render at its "# E<n>: caption"
// lines, keyed by experiment id.
func csvBlocks(s string) map[string]string {
	caption := regexp.MustCompile(`(?m)^# (E\d+): `)
	starts := caption.FindAllStringSubmatchIndex(s, -1)
	blocks := make(map[string]string, len(starts))
	for i, m := range starts {
		end := len(s)
		if i+1 < len(starts) {
			end = starts[i+1][0]
		}
		blocks[s[m[2]:m[3]]] = s[m[0]:end]
	}
	return blocks
}
