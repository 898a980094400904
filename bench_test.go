package lbmech

// The benchmark harness regenerates every table and figure of the
// paper (go test -bench=.). Each benchmark body recomputes the
// artifact from scratch, so -benchmem also reports the cost of a full
// reproduction; the b.Log output (visible with -v) carries the actual
// rows, and correctness is enforced in the regular test suite.

import (
	"fmt"
	"testing"

	"repro/internal/distmech"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/game"
	"repro/internal/mech"
	"repro/internal/stats"
)

func benchArtifact(b *testing.B, id string) {
	b.Helper()
	a, err := experiments.ArtifactByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tab, err := a.Table()
		if err != nil {
			b.Fatal(err)
		}
		if tab.Rows() == 0 {
			b.Fatal("empty artifact")
		}
	}
	tab, err := a.Table()
	if err != nil {
		b.Fatal(err)
	}
	b.Log("\n" + tab.String())
}

// BenchmarkTable1 regenerates Table 1 (system configuration).
func BenchmarkTable1(b *testing.B) { benchArtifact(b, "table1") }

// BenchmarkTable2 regenerates Table 2 (experiment definitions).
func BenchmarkTable2(b *testing.B) { benchArtifact(b, "table2") }

// BenchmarkFigure1 regenerates Figure 1 (performance degradation).
func BenchmarkFigure1(b *testing.B) { benchArtifact(b, "fig1") }

// BenchmarkFigure2 regenerates Figure 2 (payment/utility of C1).
func BenchmarkFigure2(b *testing.B) { benchArtifact(b, "fig2") }

// BenchmarkFigure3 regenerates Figure 3 (per-computer, True1).
func BenchmarkFigure3(b *testing.B) { benchArtifact(b, "fig3") }

// BenchmarkFigure4 regenerates Figure 4 (per-computer, High1).
func BenchmarkFigure4(b *testing.B) { benchArtifact(b, "fig4") }

// BenchmarkFigure5 regenerates Figure 5 (per-computer, Low1).
func BenchmarkFigure5(b *testing.B) { benchArtifact(b, "fig5") }

// BenchmarkFigure6 regenerates Figure 6 (payment structure).
func BenchmarkFigure6(b *testing.B) { benchArtifact(b, "fig6") }

// BenchmarkDESCrossCheck validates the analytic latencies of Figure 1
// against the discrete-event simulator (30k jobs per experiment per
// iteration).
func BenchmarkDESCrossCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.DESCrossCheck(30000, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.RelErr > 0.15 {
				b.Fatalf("%s: rel err %v", r.Experiment, r.RelErr)
			}
		}
	}
	rows, err := experiments.DESCrossCheck(30000, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		b.Logf("%-6s analytic %8.3f  simulated %8.3f  relerr %.4f",
			r.Experiment, r.Analytic, r.Simulated, r.RelErr)
	}
}

// BenchmarkTruthfulnessGrid measures the dominant-strategy
// verification sweep of the paper mechanism on the full 16-computer
// system (the empirical Theorem 3.1).
func BenchmarkTruthfulnessGrid(b *testing.B) {
	agents := mech.Truthful(experiments.PaperTrueValues())
	for i := 0; i < b.N; i++ {
		rep, err := game.VerifyTruthfulness(mech.CompensationBonus{}, agents,
			experiments.PaperRate, 0, game.DefaultGrid(), 0)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Truthful() {
			b.Fatal("mechanism manipulated")
		}
	}
}

// BenchmarkAblationVerification quantifies what verification buys: the
// utility penalty each mechanism imposes on the paper's deviations.
// The verification mechanism's penalties are the reference; the
// no-verification variant even *rewards* two of them.
func BenchmarkAblationVerification(b *testing.B) {
	mechanisms := []mech.Mechanism{
		mech.CompensationBonus{},
		mech.BidCompensationBonus{},
		mech.VCG{},
	}
	type key struct{ mech, exp string }
	penalties := map[key]float64{}
	for i := 0; i < b.N; i++ {
		for _, m := range mechanisms {
			truth, err := m.Run(mech.Truthful(experiments.PaperTrueValues()), experiments.PaperRate)
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range experiments.Table2Experiments() {
				o, err := m.Run(e.Agents(), experiments.PaperRate)
				if err != nil {
					b.Fatal(err)
				}
				penalties[key{m.Name(), e.Name}] = truth.Utility[0] - o.Utility[0]
			}
		}
	}
	for _, e := range experiments.Table2Experiments() {
		line := fmt.Sprintf("%-6s", e.Name)
		for _, m := range mechanisms {
			line += fmt.Sprintf("  %s penalty %9.4f", m.Name(), penalties[key{m.Name(), e.Name}])
		}
		b.Log(line)
	}
}

// BenchmarkAblationArcherTardos compares the frugality (total payment
// over total agent cost, both in the utilitarian convention) of the
// Archer-Tardos integral payments against VCG on the paper system.
func BenchmarkAblationArcherTardos(b *testing.B) {
	agents := mech.Truthful(experiments.PaperTrueValues())
	var atRatio, vcgRatio float64
	for i := 0; i < b.N; i++ {
		at, err := mech.ArcherTardos{}.Run(agents, experiments.PaperRate)
		if err != nil {
			b.Fatal(err)
		}
		vcg, err := mech.VCG{}.Run(agents, experiments.PaperRate)
		if err != nil {
			b.Fatal(err)
		}
		atRatio, vcgRatio = at.FrugalityRatio(), vcg.FrugalityRatio()
	}
	b.Logf("frugality ratio: archer-tardos %.4f, vcg %.4f", atRatio, vcgRatio)
}

// BenchmarkAblationSolver compares the closed-form PR allocation
// against the generic KKT solver on the same linear instance.
func BenchmarkAblationSolver(b *testing.B) {
	ts := experiments.PaperTrueValues()
	b.Run("closed-form-pr", func(b *testing.B) {
		model := mech.LinearModel{}
		for i := 0; i < b.N; i++ {
			if _, err := model.Alloc(ts, experiments.PaperRate); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("generic-kkt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys, err := NewSystem(ts, experiments.PaperRate, WithModel(kktLinear{}))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sys.Allocation(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMechanismRun measures one full mechanism execution
// (allocation + 16 exclusion optima + payments) on the paper system.
func BenchmarkMechanismRun(b *testing.B) {
	agents := mech.Truthful(experiments.PaperTrueValues())
	m := mech.CompensationBonus{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(agents, experiments.PaperRate); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolRound measures a full protocol round including the
// discrete-event execution simulation and estimation (2000 jobs).
func BenchmarkProtocolRound(b *testing.B) {
	sys, err := PaperSystem()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := sys.RunProtocol(2000, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScalability runs the mechanism on growing system sizes,
// reporting per-size timings (the mechanism is O(n^2) in exclusion
// optima; allocations are O(n)).
func BenchmarkScalability(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ts := make([]float64, n)
			for i := range ts {
				ts[i] = 1 + float64(i%10)
			}
			agents := mech.Truthful(ts)
			m := mech.CompensationBonus{}
			for i := 0; i < b.N; i++ {
				if _, err := m.Run(agents, 2*float64(n)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistributedRound measures the fully distributed mechanism
// round (convergecast + broadcast + audited payment claims) on a
// 64-node binary tree.
func BenchmarkDistributedRound(b *testing.B) {
	ts := make([]float64, 64)
	ladder := []float64{1, 2, 5, 10}
	for i := range ts {
		ts[i] = ladder[i%4]
	}
	agents := mech.Truthful(ts)
	tree := BinaryTree(64)
	for i := 0; i < b.N; i++ {
		res, err := RunDistributed(tree, agents, 80)
		if err != nil {
			b.Fatal(err)
		}
		if res.Messages != 4*63 {
			b.Fatal("wrong message count")
		}
	}
}

// BenchmarkDistributedRoundWithCrash measures a distributed round on a
// 64-node binary tree with one internal node crashed: timeouts fire,
// the subtree is cut, and the survivors complete the round.
func BenchmarkDistributedRoundWithCrash(b *testing.B) {
	ts := make([]float64, 64)
	ladder := []float64{1, 2, 5, 10}
	for i := range ts {
		ts[i] = ladder[i%4]
	}
	agents := mech.Truthful(ts)
	for i := 0; i < b.N; i++ {
		res, err := distmech.Run(distmech.Config{
			Tree:   BinaryTree(64),
			Agents: agents,
			Rate:   60,
			Faults: faults.New(0, faults.Crash(5)),
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Missing) == 0 {
			b.Fatal("crash not detected")
		}
	}
}

// BenchmarkExtRateSweep regenerates the extension rate-sweep table.
func BenchmarkExtRateSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RateSweep(nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkExtSizeSweep regenerates the extension size-sweep table.
func BenchmarkExtSizeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SizeSweep(nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkMM1ProtocolRound measures a full M/M/1 protocol round with
// real queueing simulation and sojourn-inversion verification (20k
// jobs).
func BenchmarkMM1ProtocolRound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := runMM1Protocol(20000, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtCollusion regenerates the pairwise-collusion extension
// table (six pairs, full joint-deviation grids, parallelized).
func BenchmarkExtCollusion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CollusionTableData()
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].Gain <= 0 {
			b.Fatal("fast-pair collusion gain vanished")
		}
	}
}

// BenchmarkExtHeterogeneity regenerates the heterogeneity sweep.
func BenchmarkExtHeterogeneity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.HeterogeneitySweep(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtPriceOfAnarchy regenerates the PoA extension table
// (best-response iteration to equilibrium on four systems).
func BenchmarkExtPriceOfAnarchy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.PoATableData()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkStreamChurn measures the online allocator under heavy
// add/remove churn (the long-running coordinator's hot path).
func BenchmarkStreamChurn(b *testing.B) {
	st, err := allocNewStream(100)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]int, 0, 1024)
	for i := 0; i < 1024; i++ {
		id, err := st.Add(1 + float64(i%10))
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := st.Add(2.5)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.Load(ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
		if err := st.Remove(id); err != nil {
			b.Fatal(err)
		}
	}
}

// kktLinear is a LinearModel whose allocation goes through the generic
// KKT water-filling solver instead of the closed form, for the solver
// ablation.
type kktLinear struct{ mech.LinearModel }

func (kktLinear) Alloc(values []float64, rate float64) ([]float64, error) {
	return genericAlloc(values, rate)
}

// genericAlloc is defined in bench_support_test.go to keep internal
// imports together.
var _ = stats.RelErr
