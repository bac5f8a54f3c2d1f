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
// serialized or reconstructed from the serialized Config — observers are
// process-local and must be re-attached after Resume.
//
// Version policy (DESIGN.md §9): the version is bumped on any layout
// change; Resume rejects versions it does not know rather than guessing.
const (
	checkpointMagic = "mobilegossip/checkpoint"
	// CheckpointVersion is the checkpoint format version this build writes
	// and the only version it resumes. Version 2 added the adversary
	// topology knobs to the config block and generalized the topology
	// section's mobility flag into a schedule-kind tag; version 3 added the
	// Topology.Relabel knob. Config.EngineWorkers is deliberately NOT in
	// the stream: worker count affects wall-clock only, so sequential and
	// parallel runs write interchangeable, byte-identical checkpoints and a
	// resumed session re-resolves its own worker count.
	CheckpointVersion = 3
)

// Topology-section schedule-kind tags: which dynamic-schedule state (if
// any) follows the config/engine/protocol sections.
const (
	topoStateNone      = 0 // pure function of (Config, round): nothing serialized
	topoStateMobility  = 1 // mobility.Schedule trajectory
	topoStateAdversary = 2 // adversary.Engine state (wrapping its base's, if any)
)

// topoCheckpointer is the stateful-schedule contract: schedules that carry
// mutable state beyond (Config, round) serialize it through this pair.
type topoCheckpointer interface {
	CheckpointTo(w *ckpt.Writer)
	RestoreFrom(r *ckpt.Reader) error
}

// topoState maps a dynamic schedule to its kind tag and, for stateful
// kinds, its checkpointer — the single dispatch Checkpoint and Resume
// share, so adding a schedule kind touches exactly one switch.
func topoState(dyn dyngraph.Dynamic) (int, topoCheckpointer) {
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
	// wall-clock-only knob, deliberately outside the stream like
	// EngineWorkers); profiling only times the serialization below.
	var t0 time.Time
	if s.prof != nil {
		t0 = time.Now()
	}
	cw := ckpt.NewWriter(w)
	cw.String(checkpointMagic)
	cw.U64(CheckpointVersion)
	writeConfig(cw, s.cfg)
	s.eng.CheckpointTo(cw)
	s.st.CheckpointTo(cw)

	cw.Section("protocol")
	if s.parts.shared != nil {
		cw.U64(s.parts.shared.Seed())
	}
	if s.parts.eps != nil {
		s.parts.eps.CheckpointTo(cw)
	}
	if s.parts.ssb != nil {
		s.parts.ssb.CheckpointTo(cw)
	}
	if s.parts.cb != nil {
		s.parts.cb.CheckpointTo(cw)
	}

	cw.Section("topology")
	tag, cp := topoState(s.dyn)
	cw.Int(tag)
	if cp != nil {
		cp.CheckpointTo(cw)
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
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := s.Checkpoint(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
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
// from the stream; observers, which cannot be serialized, must be
// re-attached with Observe.
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
	cfg, err := readConfig(cr)
	if err != nil {
		return nil, err
	}
	sim, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("mobilegossip: rebuilding checkpointed run: %w", err)
	}
	if err := sim.eng.RestoreFrom(cr); err != nil {
		return nil, err
	}
	if err := sim.st.RestoreFrom(cr); err != nil {
		return nil, err
	}

	cr.Section("protocol")
	if sim.parts.shared != nil {
		if seed := cr.U64(); cr.Err() == nil && seed != sim.parts.shared.Seed() {
			return nil, fmt.Errorf("mobilegossip: checkpoint shared-string key %#x does not match rebuilt key %#x",
				seed, sim.parts.shared.Seed())
		}
	}
	if sim.parts.eps != nil {
		if err := sim.parts.eps.RestoreFrom(cr); err != nil {
			return nil, err
		}
	}
	if sim.parts.ssb != nil {
		if err := sim.parts.ssb.RestoreFrom(cr); err != nil {
			return nil, err
		}
	}
	if sim.parts.cb != nil {
		if err := sim.parts.cb.RestoreFrom(cr); err != nil {
			return nil, err
		}
	}

	cr.Section("topology")
	tag := cr.Int()
	rebuiltTag, cp := topoState(sim.dyn)
	if tag != rebuiltTag {
		return nil, fmt.Errorf("mobilegossip: checkpoint topology state (kind %d) does not match rebuilt schedule (kind %d)",
			tag, rebuiltTag)
	}
	if cp != nil {
		if err := cp.RestoreFrom(cr); err != nil {
			return nil, err
		}
	}
	if err := cr.Err(); err != nil {
		return nil, err
	}
	// Announced on the bus (after session_start) at the first Step, when
	// the revived session's subscribers are attached.
	sim.resumed = true
	return sim, nil
}

// writeConfig serializes the data fields of a Config (the observers are
// process-local and excluded).
func writeConfig(w *ckpt.Writer, cfg Config) {
	w.Section("config")
	w.Int(int(cfg.Algorithm))
	w.Int(cfg.N)
	w.Int(cfg.K)
	w.Bool(cfg.Assignment != nil)
	if cfg.Assignment != nil {
		w.Int(cfg.Assignment.Universe)
		w.Ints(cfg.Assignment.Tokens)
		w.Ints(cfg.Assignment.Owners)
	}
	t := cfg.Topology
	w.Int(int(t.Kind))
	w.Int(t.Degree)
	w.F64(t.P)
	w.Int(t.Rows)
	w.Int(t.Cols)
	w.Int(t.CliqueSize)
	w.Int(t.PathLen)
	w.F64(t.Radius)
	w.Int(t.Attach)
	w.F64(t.Speed)
	w.Int(t.Pause)
	w.F64(t.LevyAlpha)
	w.Int(t.Groups)
	w.F64(t.Attract)
	w.Int(t.Period)
	w.Int(int(t.Adversary))
	w.Int(t.AdvBudget)
	w.Int(t.AdvParts)
	w.Int(t.AdvPeriod)
	w.Int(int(t.Relabel))
	w.Int(cfg.Tau)
	w.F64(cfg.Epsilon)
	w.Int(cfg.TagBits)
	w.U64(cfg.Seed)
	w.Int(cfg.MaxRounds)
	w.Bool(false) // v3 keeps the slot of the removed Config.Concurrent option
	w.F64(cfg.TransferEps)
	w.Int(cfg.CrowdedBin.Beta)
	w.Int(cfg.CrowdedBin.Gamma)
}

// readConfig deserializes a writeConfig stream.
func readConfig(r *ckpt.Reader) (Config, error) {
	var cfg Config
	r.Section("config")
	cfg.Algorithm = Algorithm(r.Int())
	cfg.N = r.Int()
	cfg.K = r.Int()
	if r.Bool() {
		a := &core.Assignment{}
		a.Universe = r.Int()
		a.Tokens = r.Ints()
		a.Owners = r.Ints()
		cfg.Assignment = a
	}
	t := &cfg.Topology
	t.Kind = TopologyKind(r.Int())
	t.Degree = r.Int()
	t.P = r.F64()
	t.Rows = r.Int()
	t.Cols = r.Int()
	t.CliqueSize = r.Int()
	t.PathLen = r.Int()
	t.Radius = r.F64()
	t.Attach = r.Int()
	t.Speed = r.F64()
	t.Pause = r.Int()
	t.LevyAlpha = r.F64()
	t.Groups = r.Int()
	t.Attract = r.F64()
	t.Period = r.Int()
	t.Adversary = AdversaryKind(r.Int())
	t.AdvBudget = r.Int()
	t.AdvParts = r.Int()
	t.AdvPeriod = r.Int()
	t.Relabel = RelabelKind(r.Int())
	cfg.Tau = r.Int()
	cfg.Epsilon = r.F64()
	cfg.TagBits = r.Int()
	cfg.Seed = r.U64()
	cfg.MaxRounds = r.Int()
	r.Bool() // the removed option's slot (see writeConfig): read and discarded
	cfg.TransferEps = r.F64()
	cfg.CrowdedBin.Beta = r.Int()
	cfg.CrowdedBin.Gamma = r.Int()
	return cfg, r.Err()
}
