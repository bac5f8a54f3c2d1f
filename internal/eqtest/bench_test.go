package eqtest

import (
	"fmt"
	"math"
	"testing"

	"mobilegossip/internal/prand"
)

var primeSink uint64

// BenchmarkPrimeDraw times the primes of one equal-range probe at the
// benchmark's two universes and ε = N⁻³ (34 trials at N = 1,024, 44 at
// N = 10,000): per-prime is `trials` calls of nth(rng, 1), one loop exit
// per prime; counted is the one nth(rng, trials) call eqTest makes. Both
// leave the generator in the same state. ns/prime is the figure to read.
func BenchmarkPrimeDraw(b *testing.B) {
	for _, n := range []int{1024, 10000} {
		p := primesFor(n)
		trials := trialsFor(n, math.Pow(float64(n), -3))
		for _, mode := range []string{"per-prime", "counted"} {
			b.Run(fmt.Sprintf("N=%d/trials=%d/%s", n, trials, mode), func(b *testing.B) {
				rng := prand.New(1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "counted" {
						primeSink += p.nth(rng, trials)
						continue
					}
					for j := 0; j < trials; j++ {
						primeSink += p.nth(rng, 1)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*trials), "ns/prime")
			})
		}
	}
}
