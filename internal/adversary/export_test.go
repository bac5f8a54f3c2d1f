package adversary

// Strategies enumerates one default-parameterized instance of every
// built-in strategy, in catalogue order — the conformance tests' single
// source of truth.
func Strategies() []Strategy {
	return []Strategy{
		Bipartition(), Bridges(4), CutRich(), Isolate(),
		Blackout(4, 8), Partition(8), TopK(3),
	}
}
