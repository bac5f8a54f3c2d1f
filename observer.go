package mobilegossip

import "mobilegossip/internal/events"

// RoundStats reports one executed simulation round: the engine meters for
// exactly that round (not running totals) plus the potential after it.
type RoundStats struct {
	// Round is the 1-based round just executed.
	Round int
	// Potential is φ at the end of the round (0 once fully solved).
	Potential int
	// Connections and Proposals count this round's accepted connections
	// and sent proposals.
	Connections int
	Proposals   int
	// ControlBits and TokensMoved are the communication metered over this
	// round's connections.
	ControlBits int64
	TokensMoved int64
	// EdgesAdded and EdgesRemoved are the topology churn entering this
	// round (0 for static and regenerating schedules).
	EdgesAdded   int
	EdgesRemoved int
	// Done reports whether the protocol reached its objective at the end
	// of this round.
	Done bool
}

// Observer receives the lifecycle events of one simulation. Observers
// compose: any number can watch the same run; PotentialSampler and
// ChurnMeter are provided, and embedding NopObserver makes a custom one a
// few lines. Each round's stats are the meters its round_completed event
// carries, so an observer sees exactly what an event sink records.
//
// Events fire on the stepping goroutine: BeginRun once before the first
// round (including the first round after a Resume), EndRound after every
// round, and EndRun once when the run finishes — by objective or by
// MaxRounds, but not on context cancellation, which leaves the simulation
// resumable. Observer methods must not call back into Step or Run.
type Observer interface {
	// BeginRun fires before the first round this session executes. The
	// simulation is live: Round, Potential and TokenCount are readable.
	BeginRun(sim *Simulation)
	// EndRound fires after every executed round.
	EndRound(stats RoundStats)
	// EndRun fires once, when the run is over, with the final Result.
	EndRun(res Result)
}

// NopObserver is a no-op Observer; embed it to implement only the events
// you care about.
type NopObserver struct{}

// BeginRun implements Observer.
func (NopObserver) BeginRun(*Simulation) {}

// EndRound implements Observer.
func (NopObserver) EndRound(RoundStats) {}

// EndRun implements Observer.
func (NopObserver) EndRun(Result) {}

// PotentialSample is one point of a potential curve.
type PotentialSample struct {
	Round     int
	Potential int
}

// PotentialSampler records the potential curve φ(r): one sample when the
// run begins, one every `every` rounds, and one at the final round.
type PotentialSampler struct {
	NopObserver
	every   int
	samples []PotentialSample
}

// NewPotentialSampler returns a sampler recording every `every` rounds
// (minimum 1).
func NewPotentialSampler(every int) *PotentialSampler {
	if every < 1 {
		every = 1
	}
	return &PotentialSampler{every: every}
}

// BeginRun implements Observer: records the curve's starting point (the
// checkpointed round when the simulation was resumed).
func (ps *PotentialSampler) BeginRun(sim *Simulation) {
	ps.samples = append(ps.samples, PotentialSample{Round: sim.Round(), Potential: sim.Potential()})
}

// EndRound implements Observer.
func (ps *PotentialSampler) EndRound(stats RoundStats) {
	if stats.Round%ps.every == 0 || stats.Done {
		ps.samples = append(ps.samples, PotentialSample{Round: stats.Round, Potential: stats.Potential})
	}
}

// EndRun implements Observer: guarantees the curve ends at the final
// round even when the run stops between sampling points (MaxRounds
// exhaustion leaves stats.Done false on the last round).
func (ps *PotentialSampler) EndRun(res Result) {
	if n := len(ps.samples); n == 0 || ps.samples[n-1].Round != res.Rounds {
		ps.samples = append(ps.samples, PotentialSample{Round: res.Rounds, Potential: res.FinalPotential})
	}
}

// Samples returns the recorded curve in round order.
func (ps *PotentialSampler) Samples() []PotentialSample { return ps.samples }

// ChurnMeter accumulates the topology churn a run's dynamic schedule
// produced: total edges added/removed, and how many rounds changed the
// topology at all.
type ChurnMeter struct {
	NopObserver
	rounds  int
	changes int
	added   int64
	removed int64
}

// NewChurnMeter returns an empty churn meter.
func NewChurnMeter() *ChurnMeter { return &ChurnMeter{} }

// EndRound implements Observer.
func (cm *ChurnMeter) EndRound(stats RoundStats) {
	cm.rounds++
	if stats.EdgesAdded > 0 || stats.EdgesRemoved > 0 {
		cm.changes++
		cm.added += int64(stats.EdgesAdded)
		cm.removed += int64(stats.EdgesRemoved)
	}
}

// Rounds returns the number of rounds observed.
func (cm *ChurnMeter) Rounds() int { return cm.rounds }

// Changes returns the number of observed rounds whose topology changed.
func (cm *ChurnMeter) Changes() int { return cm.changes }

// EdgesAdded returns the total edges added over the observed rounds.
func (cm *ChurnMeter) EdgesAdded() int64 { return cm.added }

// EdgesRemoved returns the total edges removed over the observed rounds.
func (cm *ChurnMeter) EdgesRemoved() int64 { return cm.removed }

// fanOut delivers bus events to the attached Observer pipeline; it is
// registered as a synchronous bus subscriber by the first Observe call,
// making every observer a (lossless, in-order) bus subscriber without
// changing the pipeline's behavior: BeginRun on the session-start
// event, EndRound per completed round, EndRun on session end. Other
// event types carry no observer callback and pass through.
func (s *Simulation) fanOut(ev events.Event) {
	switch ev.Type {
	case events.TypeSessionStart:
		for _, o := range s.observers {
			o.BeginRun(s)
		}
	case events.TypeRoundCompleted:
		stats := RoundStats{
			Round:        ev.Round,
			Potential:    ev.Potential,
			Connections:  int(ev.Connections),
			Proposals:    int(ev.Proposals),
			ControlBits:  ev.ControlBits,
			TokensMoved:  ev.TokensMoved,
			EdgesAdded:   ev.EdgesAdded,
			EdgesRemoved: ev.EdgesRemoved,
			Done:         ev.Done,
		}
		for _, o := range s.observers {
			o.EndRound(stats)
		}
	case events.TypeSessionEnd:
		res := s.Result()
		for _, o := range s.observers {
			o.EndRun(res)
		}
	}
}
