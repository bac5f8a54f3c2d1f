package client

// The gossipd v1 wire format. These types are the single definition of
// the HTTP+JSON bodies: the daemon (internal/daemon) decodes requests
// into and encodes responses from them, and the bindings in this package
// ship them over the wire, so the two cannot drift. Versioning follows
// the path (`/v1/...`): breaking changes to these shapes mean a `/v2`
// tree, while adding fields is compatible and does not (DESIGN.md §14).
// Event lines carried by the events endpoint are versioned separately by
// their own schema stamp (DESIGN.md §12).

// CreateRequest describes the session to create: the JSON mirror of
// mobilegossip.Config's data fields, with enums as their CLI wire names
// ("sharedbit", "waypoint", "cutrich", ... — the daemon parses them with
// the same Parse* functions the gossipsim flags use, so a name error
// lists the valid values). Zero values mean what they mean on Config:
// defaults.
type CreateRequest struct {
	Algorithm string       `json:"algorithm"`
	N         int          `json:"n"`
	K         int          `json:"k"`
	Topology  TopologySpec `json:"topology"`
	Tau       int          `json:"tau,omitempty"`
	Epsilon   float64      `json:"epsilon,omitempty"`
	TagBits   int          `json:"tag_bits,omitempty"`
	Seed      uint64       `json:"seed"`
	MaxRounds int          `json:"max_rounds,omitempty"`
	// Profile attaches the timing sidecar (round_profile events, health
	// in the session state).
	Profile bool `json:"profile,omitempty"`
	// TransferEps overrides the per-call Transfer(ε) failure bound
	// (default n^-3).
	TransferEps float64 `json:"transfer_eps,omitempty"`
	// CrowdedBinBeta/Gamma tune the §6 schedule constants.
	CrowdedBinBeta  int `json:"crowdedbin_beta,omitempty"`
	CrowdedBinGamma int `json:"crowdedbin_gamma,omitempty"`
	// RecordEvents makes the daemon record the session's full event
	// stream (lossless, eviction-transparent) to its state directory so
	// the events endpoint can replay and follow it; without it the
	// endpoint refuses the session.
	RecordEvents bool `json:"record_events,omitempty"`
}

// TopologySpec mirrors mobilegossip.Topology with enum fields as wire
// names.
type TopologySpec struct {
	Kind       string  `json:"kind"`
	Degree     int     `json:"degree,omitempty"`
	P          float64 `json:"p,omitempty"`
	Rows       int     `json:"rows,omitempty"`
	Cols       int     `json:"cols,omitempty"`
	CliqueSize int     `json:"clique_size,omitempty"`
	PathLen    int     `json:"path_len,omitempty"`
	Radius     float64 `json:"radius,omitempty"`
	Attach     int     `json:"attach,omitempty"`
	Speed      float64 `json:"speed,omitempty"`
	Pause      int     `json:"pause,omitempty"`
	LevyAlpha  float64 `json:"levy_alpha,omitempty"`
	Groups     int     `json:"groups,omitempty"`
	Attract    float64 `json:"attract,omitempty"`
	Period     int     `json:"period,omitempty"`
	Adversary  string  `json:"adversary,omitempty"`
	AdvBudget  int     `json:"adv_budget,omitempty"`
	AdvParts   int     `json:"adv_parts,omitempty"`
	AdvPeriod  int     `json:"adv_period,omitempty"`
}

// SessionInfo is the session's live state: returned by create, resume,
// state queries, and one per session from list.
type SessionInfo struct {
	ID string `json:"id"`
	// Status is "idle" (resident, not stepping), "running" (a run job is
	// stepping it), or "evicted" (serialized to a disk checkpoint; the
	// next touch revives it transparently).
	Status string `json:"status"`
	Round  int    `json:"round"`
	// Potential is φ = Σ_u (k − |T_u|) at the last round boundary.
	Potential int  `json:"potential"`
	Done      bool `json:"done"`
	Solved    bool `json:"solved"`
	// Session identity, echoed from the create request after
	// normalization.
	N         int    `json:"n"`
	K         int    `json:"k"`
	Algorithm string `json:"algorithm"`
	// Topology is the schedule's self-description (the same name local
	// results print), e.g. "waypoint(v=0.010, p=2)τ=1".
	Topology string  `json:"topology"`
	Tau      int     `json:"tau"`
	Epsilon  float64 `json:"epsilon,omitempty"`
	Seed     uint64  `json:"seed"`
	// Health is the stall detector's verdict ("unknown" unless the
	// session was created with Profile).
	Health string `json:"health"`
	// EventsRecorded is the number of event lines recorded so far
	// (0 unless RecordEvents).
	EventsRecorded int64 `json:"events_recorded"`
	// Evictions counts how many times this session has been evicted to
	// its disk checkpoint (and revived).
	Evictions int64 `json:"evictions"`
}

// RunRequest asks the scheduler to advance a session. Rounds is relative:
// step this many more rounds from wherever the session is; <= 0 means run
// to completion (objective or MaxRounds), and so does an empty request
// body. The call returns when the target is reached, the run finishes, or
// the job is canceled.
type RunRequest struct {
	Rounds int `json:"rounds"`
}

// RunResult reports a run job's outcome: the session's Result so far
// (final when Done) plus where the job left the session.
type RunResult struct {
	Session SessionInfo `json:"session"`
	// Canceled reports that the job was canceled (by the cancel endpoint
	// or the request's disconnect) before reaching its target; the
	// session stays at the round boundary it reached, fully usable.
	Canceled bool `json:"canceled,omitempty"`

	// The Result fields, wire-shaped (mobilegossip.Result with enum
	// names as strings).
	Algorithm      string `json:"algorithm"`
	Topology       string `json:"topology"`
	Solved         bool   `json:"solved"`
	Rounds         int    `json:"rounds"`
	Connections    int64  `json:"connections"`
	Proposals      int64  `json:"proposals"`
	ControlBits    int64  `json:"control_bits"`
	TokensMoved    int64  `json:"tokens_moved"`
	EdgesAdded     int64  `json:"edges_added"`
	EdgesRemoved   int64  `json:"edges_removed"`
	FinalPotential int    `json:"final_potential"`
}

// RebindRequest swaps the session's topology schedule and stability
// factor at its current round boundary (Simulation.Rebind): the phased
// scenario timeline over the wire. The new schedule takes effect from
// the next round; Tau is absolute (0 = static), not a delta.
type RebindRequest struct {
	Topology TopologySpec `json:"topology"`
	Tau      int          `json:"tau,omitempty"`
}

// Version describes the daemon build: the API tree version and the
// format versions it speaks, so clients can detect incompatibilities
// before shipping work.
type Version struct {
	API               string `json:"api"`
	CheckpointVersion int    `json:"checkpoint_version"`
	EventSchema       int    `json:"event_schema"`
}

// APIError is the JSON error body every non-2xx daemon response carries.
// It implements error, so bindings return it directly.
type APIError struct {
	Status  int    `json:"-"`
	Message string `json:"error"`
}

func (e *APIError) Error() string { return e.Message }
