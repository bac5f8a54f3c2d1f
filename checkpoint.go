package mobilegossip

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"mobilegossip/internal/adversary"
	"mobilegossip/internal/ckpt"
	"mobilegossip/internal/core"
	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/events"
	"mobilegossip/internal/mobility"
)

// The checkpoint stream format: a magic string, a format version, the full
// run configuration, then one section per state-carrying layer (engine
// meters + per-node RNG streams, token arena, protocol extras, mobility
// trajectory). Everything a deterministic execution depends on is either
// serialized or reconstructed from the serialized Config — bus
// subscribers are process-local and must be re-attached after Resume.
//
// Version policy (DESIGN.md §9): the version is bumped on any layout
// change; Resume rejects versions it does not know rather than guessing.
const (
	checkpointMagic = "mobilegossip/checkpoint"
	// CheckpointVersion is the checkpoint format version this build writes
	// and the only version it resumes. Version 2 added the adversary
	// topology knobs to the config block and generalized the topology
	// section's mobility flag into a schedule-kind tag; v3 keeps the slot
	// of the removed Relabel knob. Config.EngineWorkers, which is ignored,
	// is not in the stream.
	CheckpointVersion = 3
)

// Topology-section schedule-kind tags: which dynamic-schedule state (if
// any) follows the config/engine/protocol sections.
const (
	topoStateNone      = 0 // pure function of (Config, round): nothing serialized
	topoStateMobility  = 1 // mobility.Schedule trajectory
	topoStateAdversary = 2 // adversary.Engine state (wrapping its base's, if any)
)

// topoState maps a dynamic schedule to its kind tag and, for stateful
// kinds, its checkpointer — the single dispatch Checkpoint and Resume
// share, so adding a schedule kind touches exactly one switch.
func topoState(dyn dyngraph.Dynamic) (int, dyngraph.Checkpointer) {
	switch d := dyn.(type) {
	case *adversary.Engine:
		// Adversary engines serialize their RNG stream, epoch and current
		// edge list — and their base schedule's state when it carries any
		// (mobility trajectories).
		return topoStateAdversary, d
	case *mobility.Schedule:
		// Mobility trajectories are serialized so Resume continues the
		// motion directly instead of replaying every epoch from the seed.
		return topoStateMobility, d
	default:
		// Static and regenerating schedules are pure functions of
		// (Config, round): the engine's next At(r) rebuilds them exactly.
		return topoStateNone, nil
	}
}

// ErrCheckpointFormat reports a stream that is not a mobilegossip
// checkpoint, or one whose version this build does not support.
var ErrCheckpointFormat = errors.New("mobilegossip: not a supported checkpoint stream")

// Checkpoint serializes the simulation's complete deterministic state to
// w. Valid at any round boundary — before the first Step, mid-run, or
// after completion. The checkpoint captures the logical run exactly:
// resuming it and stepping to completion yields byte-identical results to
// the uninterrupted execution, for every algorithm and topology family.
//
// Checkpoints of identical states are themselves byte-identical, so tests
// and CI can compare checkpoint files directly.
func (s *Simulation) Checkpoint(w io.Writer) error {
	if err := s.eng.Failed(); err != nil {
		return fmt.Errorf("mobilegossip: cannot checkpoint a failed run: %w", err)
	}
	// The checkpoint bytes are identical profiled or not (Profile is a
	// wall-clock-only knob, deliberately outside the stream); profiling
	// only times the serialization below.
	var t0 time.Time
	if s.prof != nil {
		t0 = time.Now()
	}
	cw := ckpt.NewWriter(w)
	cw.String(checkpointMagic)
	cw.U64(CheckpointVersion)
	configLayout(cw.Fields(), &s.cfg)
	if err := s.layout(cw.Fields()); err != nil {
		return err
	}
	if err := cw.Flush(); err != nil {
		return err
	}
	var writeNs int64
	if s.prof != nil {
		writeNs = time.Since(t0).Nanoseconds()
		s.prof.RecordCheckpointWrite(writeNs)
	}
	s.bus.Publish(events.Event{
		Type: events.TypeCheckpointWritten, Round: s.eng.Round(), Potential: s.st.Potential(),
		WriteNanos: writeNs,
	})
	return nil
}

// CheckpointFile serializes the simulation to path atomically: the
// stream is written to a temporary sibling file and renamed into place
// only after a successful flush, so a crash mid-write can never leave a
// truncated checkpoint where a valid one (or nothing) should be. This is
// the persistence hook gossipd's checkpoint-backed session eviction
// rides; it is equally convenient for CLI-level snapshots.
func (s *Simulation) CheckpointFile(path string) error {
	return ckpt.WriteFileAtomic(path, s.Checkpoint)
}

// ResumeFile revives a CheckpointFile (or any Checkpoint stream saved to
// disk) into a live simulation — the counterpart hook gossipd uses to
// transparently revive evicted sessions on their next touch.
func ResumeFile(path string) (*Simulation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Resume(f)
}

// Resume deserializes a Checkpoint stream into a live simulation
// positioned at the checkpointed round boundary. The configuration is read
// from the stream; bus subscribers, which cannot be serialized, must be
// re-attached to the revived session's Bus.
//
// A resumed simulation continues byte-identically to the run that wrote
// the checkpoint: same rounds, same meters, same final Result.
func Resume(r io.Reader) (*Simulation, error) {
	cr := ckpt.NewReader(r)
	if magic := cr.String(); cr.Err() != nil || magic != checkpointMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCheckpointFormat)
	}
	if v := cr.U64(); cr.Err() != nil || v != CheckpointVersion {
		return nil, fmt.Errorf("%w: version %d (this build supports %d)",
			ErrCheckpointFormat, v, CheckpointVersion)
	}
	var cfg Config
	relabel := configLayout(cr.Fields(), &cfg)
	if err := cr.Err(); err != nil {
		return nil, err
	}
	if relabel != 0 {
		// The static or regenerating graph is rebuilt from Config, and this
		// build can no longer renumber it: resuming would continue the run
		// on a different graph.
		return nil, fmt.Errorf("%w: the run sets the removed Relabel knob (%d)",
			ErrCheckpointFormat, relabel)
	}
	sim, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("mobilegossip: rebuilding checkpointed run: %w", err)
	}
	if err := sim.layout(cr.Fields()); err != nil {
		return nil, err
	}
	// Announced on the bus (after session_start) at the first Step, when
	// the revived session's subscribers are attached.
	sim.resumed = true
	return sim, nil
}

// layout is the checkpoint's body after the config block — the engine, the
// run state, the protocol's extras and the topology's state — walked by
// Checkpoint over a writer and by Resume over a reader into the simulation
// New rebuilt from that config block.
func (s *Simulation) layout(c ckpt.Fields) error {
	if err := s.eng.Layout(c); err != nil {
		return err
	}
	if err := s.st.Layout(c); err != nil {
		return err
	}

	c.Section("protocol")
	if s.parts.shared != nil {
		seed := s.parts.shared.Seed()
		if c.U64(&seed); c.Err() == nil && seed != s.parts.shared.Seed() {
			return fmt.Errorf("mobilegossip: checkpoint shared-string key %#x does not match rebuilt key %#x",
				seed, s.parts.shared.Seed())
		}
	}
	if s.parts.eps != nil {
		if err := s.parts.eps.Layout(c); err != nil {
			return err
		}
	}
	if s.parts.ssb != nil {
		if err := s.parts.ssb.Layout(c); err != nil {
			return err
		}
	}
	if s.parts.cb != nil {
		if err := s.parts.cb.Layout(c); err != nil {
			return err
		}
	}

	c.Section("topology")
	rebuilt, cp := topoState(s.dyn)
	tag := rebuilt
	if c.Int(&tag); tag != rebuilt {
		return fmt.Errorf("mobilegossip: checkpoint topology state (kind %d) does not match rebuilt schedule (kind %d)",
			tag, rebuilt)
	}
	if cp != nil {
		if err := cp.Layout(c); err != nil {
			return err
		}
	}
	return c.Err()
}

// configLayout is the checkpoint's config block: every data field of
// Config in stream order, walked by Checkpoint over a writer and by Resume
// over a reader, so the slot order below is the format. EngineWorkers
// (ignored) and Profile (wall-clock only) have no slot. It returns the
// slot of the removed Topology.Relabel knob, which Resume checks.
func configLayout(c ckpt.Fields, cfg *Config) (relabel int) {
	c.Section("config")
	c.Int((*int)(&cfg.Algorithm))
	c.Int(&cfg.N)
	c.Int(&cfg.K)
	hasAssignment := cfg.Assignment != nil
	c.Bool(&hasAssignment)
	if hasAssignment {
		if cfg.Assignment == nil {
			cfg.Assignment = &core.Assignment{}
		}
		c.Int(&cfg.Assignment.Universe)
		c.Ints(&cfg.Assignment.Tokens)
		c.Ints(&cfg.Assignment.Owners)
	}
	t := &cfg.Topology
	c.Int((*int)(&t.Kind))
	c.Int(&t.Degree)
	c.F64(&t.P)
	c.Int(&t.Rows)
	c.Int(&t.Cols)
	c.Int(&t.CliqueSize)
	c.Int(&t.PathLen)
	c.F64(&t.Radius)
	c.Int(&t.Attach)
	c.F64(&t.Speed)
	c.Int(&t.Pause)
	c.F64(&t.LevyAlpha)
	c.Int(&t.Groups)
	c.F64(&t.Attract)
	c.Int(&t.Period)
	c.Int((*int)(&t.Adversary))
	c.Int(&t.AdvBudget)
	c.Int(&t.AdvParts)
	c.Int(&t.AdvPeriod)
	// v3 keeps the slot of the removed Topology.Relabel knob: written 0,
	// read and returned.
	c.Int(&relabel)
	c.Int(&cfg.Tau)
	c.F64(&cfg.Epsilon)
	c.Int(&cfg.TagBits)
	c.U64(&cfg.Seed)
	c.Int(&cfg.MaxRounds)
	// v3 keeps the slot of the removed Config.Concurrent option: written
	// false, read and discarded.
	var removedConcurrent bool
	c.Bool(&removedConcurrent)
	c.F64(&cfg.TransferEps)
	c.Int(&cfg.CrowdedBin.Beta)
	c.Int(&cfg.CrowdedBin.Gamma)
	return relabel
}
