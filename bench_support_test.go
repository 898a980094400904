package lbmech

import (
	"repro/internal/alloc"
	"repro/internal/mech"
	"repro/internal/protocol"
)

// genericAlloc routes a linear allocation through the generic KKT
// solver, used by the solver ablation benchmark.
func genericAlloc(values []float64, rate float64) ([]float64, error) {
	return alloc.Optimal(alloc.LinearFunctions(values), rate)
}

// allocNewStream exposes the online allocator constructor to the
// benchmarks.
func allocNewStream(rate float64) (*alloc.Stream, error) {
	return alloc.NewStream(rate)
}

// runMM1Protocol runs one M/M/1 protocol round on a 4-queue system,
// used by BenchmarkMM1ProtocolRound.
func runMM1Protocol(jobs int, seed uint64) (*protocol.Result, error) {
	return protocol.Run(protocol.Config{
		Model: mech.MM1Model{},
		Trues: []float64{0.1, 0.2, 0.4, 0.5},
		Rate:  6,
		Jobs:  jobs,
		Seed:  seed,
	})
}
