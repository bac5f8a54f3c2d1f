package runner

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobilegossip/internal/prand"
)

// walk simulates a cheap seed-driven computation: a few hundred PRNG steps
// folded into one value. Any nondeterminism in dispatch or collection shows
// up as a changed fold.
func walk(seed uint64) uint64 {
	rng := prand.New(seed)
	var acc uint64
	for i := 0; i < 300; i++ {
		acc = acc*31 + rng.Uint64()
	}
	return acc
}

// procs sets GOMAXPROCS, and so the pool size, for the rest of the test.
func procs(t *testing.T, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestMapDeterministicAcrossWorkerCounts is the engine's core contract:
// the same base seed must yield bit-identical results at 1, 4 and 16
// workers even though completion order differs.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 64
	var want []uint64
	for _, workers := range []int{1, 4, 16} {
		procs(t, workers)
		got, err := Map(Config{Seed: 42}, n, func(j Job) (uint64, error) {
			return walk(j.Seed), nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d produced different results than workers=1", workers)
		}
	}
	// Distinct cells must see distinct stream seeds.
	seen := map[uint64]bool{}
	for _, v := range want {
		if seen[v] {
			t.Fatal("two grid cells produced identical walks — stream splitting collided")
		}
		seen[v] = true
	}
}

// TestMapGridOrderUnderOutOfOrderCompletion forces early cells to finish
// last (index 0 sleeps longest) and checks collection stays in grid order.
func TestMapGridOrderUnderOutOfOrderCompletion(t *testing.T) {
	const n = 16
	procs(t, 8)
	got, err := Map(Config{}, n, func(j Job) (int, error) {
		time.Sleep(time.Duration(n-j.Index) * time.Millisecond)
		return j.Index * 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*10 {
			t.Fatalf("results[%d] = %d, want %d", i, v, i*10)
		}
	}
}

// TestMapErrorCancelsRemaining: at GOMAXPROCS 1 the dispatch is strictly
// sequential, so an error at index 3 must leave cells 4..n-1 unattempted.
func TestMapErrorCancelsRemaining(t *testing.T) {
	boom := errors.New("boom")
	var calls int32
	procs(t, 1)
	_, err := Map(Config{}, 100, func(j Job) (int, error) {
		atomic.AddInt32(&calls, 1)
		if j.Index == 3 {
			return 0, boom
		}
		return j.Index, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := atomic.LoadInt32(&calls); got != 4 {
		t.Fatalf("%d cells attempted after error at index 3, want exactly 4", got)
	}
}

// TestMapErrorSmallestIndexWins: when several in-flight cells fail, the
// reported error belongs to the smallest failing grid index, independent of
// which worker reports first.
func TestMapErrorSmallestIndexWins(t *testing.T) {
	var gate sync.WaitGroup
	gate.Add(4)
	procs(t, 4)
	_, err := Map(Config{}, 4, func(j Job) (int, error) {
		// All four cells are in flight before any fails.
		gate.Done()
		gate.Wait()
		if j.Index >= 1 {
			return 0, fmt.Errorf("cell %d failed", j.Index)
		}
		return 0, nil
	})
	if err == nil || err.Error() != "cell 1 failed" {
		t.Fatalf("err = %v, want cell 1's error", err)
	}
}

func TestMapEmptyAndNegative(t *testing.T) {
	got, err := Map(Config{}, 0, func(j Job) (int, error) { return 1, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("empty grid: got %v, %v", got, err)
	}
	if _, err := Map(Config{}, -1, func(j Job) (int, error) { return 1, nil }); err == nil {
		t.Fatal("negative grid size should error")
	}
}

// TestMapGridShapeAndDeterminism checks row-major reshaping and that the
// grid view is worker-count independent too.
func TestMapGridShapeAndDeterminism(t *testing.T) {
	const points, trials = 5, 3
	var want [][]uint64
	for _, workers := range []int{1, 7} {
		procs(t, workers)
		got, err := MapGrid(Config{Seed: 7}, points, trials,
			func(p, tr int, seed uint64) (uint64, error) {
				return walk(seed) ^ uint64(p*100+tr), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != points || len(got[0]) != trials {
			t.Fatalf("shape %d×%d, want %d×%d", len(got), len(got[0]), points, trials)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("MapGrid results depend on worker count")
		}
	}
}

func TestStreamSeedSplitsDistinctStreams(t *testing.T) {
	seen := map[uint64]bool{}
	for base := uint64(0); base < 4; base++ {
		for stream := uint64(0); stream < 1000; stream++ {
			s := prand.StreamSeed(base, stream)
			if seen[s] {
				t.Fatalf("StreamSeed collision at base=%d stream=%d", base, stream)
			}
			seen[s] = true
		}
	}
}
