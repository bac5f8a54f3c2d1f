package mobilegossip_test

// Native Go fuzz targets for the public decoding surfaces: checkpoint
// resumption and the name parsers. The contract under fuzz is uniform —
// hostile input yields an error, never a panic. CI runs each target for a
// short -fuzztime smoke; testdata/fuzz holds the committed seed corpus.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"mobilegossip"
	"mobilegossip/internal/ckpt"
	"mobilegossip/internal/core"
)

// checkpointBytes produces a real checkpoint to seed the corpus: a small
// adversarially jammed mobility run snapshotted mid-flight, which reaches
// every section of the stream format.
func checkpointBytes(tb testing.TB, rounds int) []byte {
	cfg := mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit, N: 24, K: 3,
		Topology: mobilegossip.Topology{
			Kind: mobilegossip.MobileWaypoint, Speed: 0.03,
			Adversary: mobilegossip.AdvCutRich, AdvBudget: 6,
		},
		Tau: 1, Seed: 99,
	}
	sim, err := mobilegossip.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < rounds && !sim.Done(); i++ {
		if _, err := sim.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sim.Checkpoint(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// crowdedBinCheckpoint snapshots a CrowdedBin run mid-bin, where spelled-bit
// accumulators and stashed tags are live state in the stream.
func crowdedBinCheckpoint(tb testing.TB) []byte {
	sim, err := mobilegossip.New(mobilegossip.Config{
		Algorithm: mobilegossip.AlgCrowdedBin, N: 64, K: 16, Seed: 1,
		Topology: mobilegossip.Topology{Kind: mobilegossip.RandomRegular},
	})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 75; i++ {
		if _, err := sim.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sim.Checkpoint(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// badEstimateCheckpoint is crowdedBinCheckpoint with node 0's estimate
// overwritten by 0, outside the instances [1, logN] a run has: a state no
// run writes. The crowdedbin section opens with its name and n, then the
// estimates as a length-prefixed list; both values are one varint byte.
func badEstimateCheckpoint(tb testing.TB) []byte {
	data := crowdedBinCheckpoint(tb)
	const section = "\x0acrowdedbin" // the name with its length prefix
	at := bytes.Index(data, []byte(section))
	if at < 0 {
		tb.Fatalf("no %q section in the checkpoint", section)
	}
	at += len(section)
	_, w := binary.Varint(data[at:]) // n
	at += w
	_, w = binary.Uvarint(data[at:]) // the estimates' length
	at += w
	var enc [binary.MaxVarintLen64]byte
	if est, w := binary.Varint(data[at:]); est != 1 || w != 1 || binary.PutVarint(enc[:], 0) != 1 {
		tb.Fatalf("found estimate %d in %d bytes, want 1 in one", est, w)
	}
	data[at] = enc[0]
	return data
}

// TestResumeRejectsBadEstimate: CrowdedBin's restore names the schedule
// error instead of resuming on another trajectory.
func TestResumeRejectsBadEstimate(t *testing.T) {
	if _, err := mobilegossip.Resume(bytes.NewReader(badEstimateCheckpoint(t))); !errors.Is(err, core.ErrCheckpointSchedule) {
		t.Errorf("Resume err = %v, want core.ErrCheckpointSchedule", err)
	}
}

// pastBackingCheckpoint forges the corruption span-backed token sets must
// survive: a checkpoint whose config assigns ids {1, 2, 70} over a universe
// of 200 — so every set is backed for two words, ids ≤ 127 — while its state
// section hands a node the id stray, inside the universe but past that
// backing. It is a genuine checkpoint of the run that assigned {1, 2, stray}
// with the config's token list overwritten in place (both lists encode to
// the same length for the ids used).
func pastBackingCheckpoint(tb testing.TB, stray int) []byte {
	encode := func(tokens []int) []byte {
		var buf bytes.Buffer
		w := ckpt.NewWriter(&buf)
		w.Ints(tokens)
		if err := w.Flush(); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	sim, err := mobilegossip.New(mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit, N: 24, Seed: 5,
		Topology:   mobilegossip.Topology{Kind: mobilegossip.Cycle},
		Assignment: &core.Assignment{Universe: 200, Tokens: []int{1, 2, stray}, Owners: []int{0, 1, 2}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sim.Checkpoint(&buf); err != nil {
		tb.Fatal(err)
	}
	written, forged := encode([]int{1, 2, stray}), encode([]int{1, 2, 70})
	if len(written) != len(forged) || bytes.Count(buf.Bytes(), written) != 1 {
		tb.Fatalf("cannot forge the config's token list for stray id %d in place", stray)
	}
	return bytes.Replace(buf.Bytes(), written, forged, 1)
}

// TestResumeRejectsTokenPastBacking: such a checkpoint fails Resume with
// the token set's backing error — the id is never indexed, never dropped.
func TestResumeRejectsTokenPastBacking(t *testing.T) {
	for _, stray := range []int{70 + 64, 200} { // maxID + 64, and N itself
		_, err := mobilegossip.Resume(bytes.NewReader(pastBackingCheckpoint(t, stray)))
		if err == nil || !strings.Contains(err.Error(), "backed for") {
			t.Errorf("stray id %d: Resume err = %v, want the backing error", stray, err)
		}
	}
}

// negativeEpochCheckpoint is checkpointBytes(tb, 10) with the epoch of one
// schedule section ("adversary.engine" or the "mobility.schedule" nested in
// it) overwritten by -3: a state no run writes, which used to resume without
// error on the wrong trajectory. Both sections open with their name, n and
// four RNG words; the epoch after them is one varint byte either way.
func negativeEpochCheckpoint(tb testing.TB, section string) []byte {
	data := checkpointBytes(tb, 10)
	at := bytes.Index(data, []byte(section))
	if at < 0 {
		tb.Fatalf("no %q section in the checkpoint", section)
	}
	at += len(section)
	for i := 0; i < 5; i++ { // n, then the RNG state
		_, w := binary.Uvarint(data[at:])
		at += w
	}
	var enc [binary.MaxVarintLen64]byte
	if epoch, w := binary.Varint(data[at:]); epoch != 9 || w != 1 || binary.PutVarint(enc[:], -3) != 1 {
		tb.Fatalf("%q: found epoch %d in %d bytes, want 9 in one", section, epoch, w)
	}
	data[at] = enc[0]
	return data
}

// TestResumeRejectsNegativeEpoch: either layer's restore names the epoch.
func TestResumeRejectsNegativeEpoch(t *testing.T) {
	for section, prefix := range map[string]string{
		"adversary.engine":  "adversary: dyngraph: checkpoint epoch -3",
		"mobility.schedule": "mobility: checkpoint epoch -3",
	} {
		_, err := mobilegossip.Resume(bytes.NewReader(negativeEpochCheckpoint(t, section)))
		if err == nil || !strings.Contains(err.Error(), prefix) {
			t.Errorf("%s at epoch -3: Resume err = %v, want %q", section, err, prefix)
		}
	}
}

// resumeFuzzN peeks at the checkpointed network size so the fuzz target can
// skip inputs whose (possibly mutated) config would make Resume allocate a
// huge-but-structurally-valid simulation; the robustness property under
// test is decode safety, not large-run throughput.
func resumeFuzzN(data []byte) (int, bool) {
	r := ckpt.NewReader(bytes.NewReader(data))
	if r.String() != "mobilegossip/checkpoint" {
		return 0, r.Err() == nil
	}
	_ = r.U64() // version
	r.Section("config")
	_ = r.Int() // algorithm
	n := r.Int()
	return n, r.Err() == nil
}

// FuzzResume feeds arbitrary bytes to mobilegossip.Resume: malformed,
// truncated, or bit-flipped checkpoints must all return errors, not panic.
func FuzzResume(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("mobilegossip/checkpoint"))
	full := checkpointBytes(f, 10)
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add(full[:len(full)-1])
	f.Add(checkpointBytes(f, 0))
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add(pastBackingCheckpoint(f, 70+64))
	f.Add(pastBackingCheckpoint(f, 200))
	f.Add(negativeEpochCheckpoint(f, "mobility.schedule"))
	f.Add(crowdedBinCheckpoint(f))
	f.Add(badEstimateCheckpoint(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		if n, ok := resumeFuzzN(data); ok && (n < 0 || n > 4096) {
			t.Skip("structurally valid header with an out-of-scope network size")
		}
		sim, err := mobilegossip.Resume(bytes.NewReader(data))
		if err == nil && sim == nil {
			t.Fatal("Resume returned neither a simulation nor an error")
		}
	})
}

// FuzzParseNames exercises the three name parsers (the CLI flag surface):
// any string either resolves to a value that round-trips through String, or
// errors with the valid-name list.
func FuzzParseNames(f *testing.F) {
	for _, s := range []string{"", "sharedbit", "waypoint", "bipartition", "none", "bfs",
		"SharedBit", "gnp\x00", "cutrich ", strings.Repeat("x", 300)} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if a, err := mobilegossip.ParseAlgorithm(s); err == nil {
			if a.String() != s {
				t.Fatalf("algorithm %q does not round-trip (got %q)", s, a.String())
			}
		} else if !strings.Contains(err.Error(), "sharedbit") {
			t.Fatalf("algorithm error does not list valid names: %v", err)
		}
		if k, err := mobilegossip.ParseTopologyKind(s); err == nil {
			if k.String() != s {
				t.Fatalf("topology %q does not round-trip (got %q)", s, k.String())
			}
		} else if !strings.Contains(err.Error(), "waypoint") {
			t.Fatalf("topology error does not list valid names: %v", err)
		}
		if k, err := mobilegossip.ParseAdversaryKind(s); err == nil {
			if s != "" && k.String() != s {
				t.Fatalf("adversary %q does not round-trip (got %q)", s, k.String())
			}
		} else if !strings.Contains(err.Error(), "cutrich") {
			t.Fatalf("adversary error does not list valid names: %v", err)
		}
	})
}
