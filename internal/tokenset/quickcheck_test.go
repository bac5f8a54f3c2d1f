package tokenset

// Property-based quick-checks for the Arena against a map-backed oracle:
// random op sequences (adds — the model has no token loss, so there is no
// remove — membership probes, range counts, fingerprints, iteration, and
// checkpoint round trips) over arena-carved sets must agree with the naive
// reference on every observable. TestSetQuickProperties covers standalone
// sets; this file pins the arena layout — shared backing array, per-set
// word spans — where an off-by-one bleeds bits between neighboring nodes.

import (
	"bytes"
	"testing"
	"testing/quick"

	"mobilegossip/internal/ckpt"
	"mobilegossip/internal/prand"
)

// arenaOracle mirrors an Arena as a slice of map-sets.
type arenaOracle struct {
	n    int
	sets []map[int]bool
}

func newArenaOracle(nodes, n int) *arenaOracle {
	o := &arenaOracle{n: n, sets: make([]map[int]bool, nodes)}
	for i := range o.sets {
		o.sets[i] = map[int]bool{}
	}
	return o
}

func (o *arenaOracle) add(i, tok int) {
	if tok >= 1 && tok <= o.n {
		o.sets[i][tok] = true
	}
}

// hashRangeNaive is the definitional fingerprint: Σ 2^t mod q per token.
func hashRangeNaive(s map[int]bool, lo, hi int, q uint64) uint64 {
	var sum uint64
	for tok := range s {
		if tok >= lo && tok <= hi {
			sum = (sum + powMod(2, uint64(tok), q)) % q
		}
	}
	return sum
}

func TestArenaQuickAgainstMapOracle(t *testing.T) {
	const q = 1_000_000_007
	f := func(seed uint64) bool {
		rng := prand.New(seed)
		nodes := 3 + rng.Intn(6)
		n := 40 + rng.Intn(120)
		a := NewArena(nodes, n, n)
		oracle := newArenaOracle(nodes, n)

		// Random op sequence: adds (in- and out-of-range) interleaved with
		// probes, spread unevenly so some sets stay empty and some cluster
		// in a narrow word span.
		ops := 80 + rng.Intn(200)
		for op := 0; op < ops; op++ {
			i := rng.Intn(nodes)
			switch rng.Intn(4) {
			case 0, 1: // add, biased toward a node-local band
				tok := 1 + (i*17+rng.Intn(40))%(n+3) - 1
				a.Sets()[i].Add(tok)
				oracle.add(i, tok)
			case 2: // add near the universe edges
				tok := []int{-1, 0, 1, 2, n - 1, n, n + 1}[rng.Intn(7)]
				a.Sets()[i].Add(tok)
				oracle.add(i, tok)
			case 3: // membership probe
				tok := rng.Intn(n+2) - 1
				if a.Sets()[i].Has(tok) != oracle.sets[i][tok] {
					return false
				}
			}
		}

		// Full-observable sweep per set.
		for i := 0; i < nodes; i++ {
			set, ref := a.Sets()[i], oracle.sets[i]
			if set.Len() != len(ref) {
				return false
			}
			seen := 0
			prev := 0
			bad := false
			set.ForEach(func(tok int) {
				if tok <= prev || !ref[tok] {
					bad = true
				}
				prev = tok
				seen++
			})
			if bad || seen != len(ref) {
				return false
			}
			// Range counts and fingerprints on random windows.
			for w := 0; w < 4; w++ {
				lo := 1 + rng.Intn(n)
				hi := lo + rng.Intn(n-lo+1)
				wantCount := 0
				for tok := range ref {
					if tok >= lo && tok <= hi {
						wantCount++
					}
				}
				if set.CountRange(lo, hi) != wantCount {
					return false
				}
				if set.HashRange(lo, hi, q) != hashRangeNaive(ref, lo, hi, q) {
					return false
				}
			}
			// Cross-set fingerprint equality agrees with true equality of
			// the restrictions.
			j := rng.Intn(nodes)
			lo, hi := 1, n
			eq := true
			for tok := 1; tok <= n; tok++ {
				if ref[tok] != oracle.sets[j][tok] {
					eq = false
					break
				}
			}
			if eq && !HashRangeEqual(set, a.Sets()[j], lo, hi, q) {
				return false // equal restrictions must always fingerprint equal
			}
			if HashRangeEqual(set, a.Sets()[j], lo, hi, q) != (set.HashRange(lo, hi, q) == a.Sets()[j].HashRange(lo, hi, q)) {
				return false // the no-modmul path must equal the two-sum path exactly
			}
		}

		// Checkpoint round trip through a fresh arena: the delta-encoded
		// stream must rebuild every set exactly.
		var buf bytes.Buffer
		w := ckpt.NewWriter(&buf)
		for i := 0; i < nodes; i++ {
			a.Sets()[i].Layout(w.Fields())
		}
		if w.Flush() != nil {
			return false
		}
		b := NewArena(nodes, n, n)
		r := ckpt.NewReader(&buf)
		for i := 0; i < nodes; i++ {
			if b.Sets()[i].Layout(r.Fields()) != nil {
				return false
			}
		}
		for i := 0; i < nodes; i++ {
			if !a.Sets()[i].Equal(b.Sets()[i]) {
				return false
			}
		}
		// And the arenas' raw backing words agree — no bit bled across the
		// per-set word-span boundaries.
		for i := range a.words {
			if a.words[i] != b.words[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
