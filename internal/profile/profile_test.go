package profile

import (
	"sync"
	"testing"
)

func TestPhaseNames(t *testing.T) {
	want := []string{"churn", "proposal", "exchange", "reduction"}
	ps := Phases()
	if len(ps) != int(NumPhases) || len(ps) != len(want) {
		t.Fatalf("Phases() has %d entries, want %d", len(ps), NumPhases)
	}
	for i, p := range ps {
		if p.String() != want[i] {
			t.Errorf("phase %d = %q, want %q", i, p.String(), want[i])
		}
	}
	if Phase(99).String() != "unknown" {
		t.Errorf("out-of-range phase name = %q", Phase(99).String())
	}
}

func TestRoundProfileImbalance(t *testing.T) {
	rp := RoundProfile{Workers: 4, MaxShardNs: 3000, MeanShardNs: 2000}
	if got := rp.ImbalanceMilli(); got != 1500 {
		t.Errorf("ImbalanceMilli = %d, want 1500", got)
	}
	rp.Workers = 1
	if got := rp.ImbalanceMilli(); got != 0 {
		t.Errorf("sequential ImbalanceMilli = %d, want 0", got)
	}
	rp = RoundProfile{Workers: 2, MaxShardNs: 10, MeanShardNs: 0}
	if got := rp.ImbalanceMilli(); got != 0 {
		t.Errorf("zero-mean ImbalanceMilli = %d, want 0", got)
	}
}

func TestRecorderAggregates(t *testing.T) {
	rec := NewRecorder()
	if rec.Rounds() != 0 {
		t.Fatalf("fresh recorder Rounds = %d", rec.Rounds())
	}
	rec.Record(RoundProfile{
		Round: 1, TotalNs: 1000,
		PhaseNs: [NumPhases]int64{100, 500, 300, 50},
	})
	rec.Record(RoundProfile{
		Round: 2, TotalNs: 2000,
		PhaseNs: [NumPhases]int64{200, 900, 700, 100},
	})
	if rec.Rounds() != 2 {
		t.Fatalf("Rounds = %d, want 2", rec.Rounds())
	}
	if got := rec.RoundLatency().Sum(); got != 3000 {
		t.Errorf("round latency sum = %d, want 3000", got)
	}
	if got := rec.PhaseLatency(PhaseProposal).Sum(); got != 1400 {
		t.Errorf("proposal phase sum = %d, want 1400", got)
	}
	// A round runs on one goroutine, so the retained record reads 1 worker.
	last := rec.Last()
	if last.Round != 2 || last.Workers != 1 {
		t.Errorf("Last = %+v, want round 2 / workers 1", last)
	}
	rec.RecordCheckpointWrite(12345)
	if got := rec.CheckpointWrite().Count(); got != 1 {
		t.Errorf("checkpoint write count = %d, want 1", got)
	}
	if rec.PhaseLatency(Phase(99)) != rec.PhaseLatency(PhaseChurn) {
		t.Error("out-of-range PhaseLatency should clamp to phase 0")
	}
}

func TestRecorderRecordAllocs(t *testing.T) {
	rec := NewRecorder()
	rp := RoundProfile{
		Round: 1, TotalNs: 1000,
		PhaseNs: [NumPhases]int64{1, 2, 3, 4},
	}
	allocs := testing.AllocsPerRun(100, func() {
		rp.Round++
		rec.Record(rp)
	})
	if allocs != 0 {
		t.Fatalf("Record allocated %.1f/op, want 0", allocs)
	}
}

// TestRecorderConcurrentReadWhileRecording models the live-scrape path:
// the stepping goroutine records while scrape goroutines read every
// exposed surface. Run under -race in the race-concurrent CI pass.
func TestRecorderConcurrentReadWhileRecording(t *testing.T) {
	rec := NewRecorder()
	const rounds = 2000
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					rec.Last()
					rec.Rounds()
					rec.RoundLatency().Quantile(0.99)
					for _, p := range Phases() {
						rec.PhaseLatency(p).Snapshot()
					}
					rec.CheckpointWrite().Sum()
				}
			}
		}()
	}
	for r := 1; r <= rounds; r++ {
		rec.Record(RoundProfile{
			Round: r, TotalNs: int64(r) * 10,
			PhaseNs: [NumPhases]int64{1, 2, 3, 4},
		})
		if r%100 == 0 {
			rec.RecordCheckpointWrite(int64(r))
		}
	}
	close(stop)
	readers.Wait()
	if rec.Rounds() != rounds {
		t.Fatalf("Rounds = %d, want %d", rec.Rounds(), rounds)
	}
	if last := rec.Last(); last.Round != rounds {
		t.Fatalf("Last().Round = %d, want %d", last.Round, rounds)
	}
}
