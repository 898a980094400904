package experiments

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/protocol"
	"repro/internal/report"
	"repro/internal/rounds"
)

// ReplicationRow is one replication of the Monte Carlo round sweep.
type ReplicationRow struct {
	// Rep is the replication index.
	Rep int
	// MeanLatency and MeanOpt are per-round means of the realized
	// total latency and the active-set optimum.
	MeanLatency, MeanOpt float64
	// RegretPct is the mean percentage gap between them.
	RegretPct float64
	// MeanPayment is the per-round mean of the total estimated
	// payment (the seed-sensitive column: it depends on the sampled
	// execution observations).
	MeanPayment float64
	// Flags counts verification flags across the replication;
	// Suspensions counts suspension events.
	Flags, Suspensions int
	// DropoutRounds counts rounds degraded by unresponsive computers.
	DropoutRounds int
}

// ReplicationSweep fans reps independent replications of a faulty
// multi-round system — the paper population plus a persistent deviator,
// message drops and a reputation policy — over the parallel round
// harness and summarizes each replication. Seeds are derived from seed,
// and the result is deterministic for any worker count.
func ReplicationSweep(reps, roundsPerRep int, seed uint64) ([]ReplicationRow, error) {
	if reps <= 0 {
		return nil, fmt.Errorf("experiments: invalid replication count %d", reps)
	}
	if roundsPerRep <= 0 {
		return nil, fmt.Errorf("experiments: invalid round count %d", roundsPerRep)
	}
	pop := make([]rounds.ComputerSpec, 16)
	for i, tv := range PaperTrueValues() {
		pop[i] = rounds.ComputerSpec{True: tv}
	}
	pop[0].Strategy = protocol.FactorStrategy{BidFactor: 1, ExecFactor: 2}
	return Sweep(rounds.Config{
		Computers:    pop,
		Rate:         PaperRate,
		Rounds:       roundsPerRep,
		JobsPerRound: 2000,
		Seed:         seed,
		Policy:       rounds.Policy{Strikes: 2, BanRounds: 3, ForgiveAfter: 10},
		Faults:       faults.New(seed, faults.Drop(0.03)),
		MaxRetries:   1,
	}, reps, 0)
}

// Sweep runs count replications of base over workers goroutines
// (<= 0 means GOMAXPROCS) and summarizes each one. Replication i runs
// with a seed derived from base.Seed and, since the fault plan carries
// its own seed, with base.Faults reseeded for i, so the sweep samples
// different fault realizations and not just different estimation
// noise. The rows are identical for any worker count.
func Sweep(base rounds.Config, count, workers int) ([]ReplicationRow, error) {
	results, err := rounds.RunReplications(rounds.Replications{
		Base:    base,
		Count:   count,
		Workers: workers,
		Vary: func(rep int, cfg *rounds.Config) {
			cfg.Faults = faults.Reseed(cfg.Faults, uint64(rep)*0xbf58476d1ce4e5b9)
		},
	})
	if err != nil {
		return nil, err
	}
	rows := make([]ReplicationRow, len(results))
	for rep, res := range results {
		row := ReplicationRow{Rep: rep}
		for _, rec := range res.Records {
			row.MeanLatency += rec.Latency
			row.MeanOpt += rec.OptLatency
			row.MeanPayment += rec.TotalPayment
			row.Flags += len(rec.Flagged)
			if len(rec.Dropouts) > 0 {
				row.DropoutRounds++
			}
		}
		n := float64(len(res.Records))
		row.MeanLatency /= n
		row.MeanOpt /= n
		row.MeanPayment /= n
		row.RegretPct = 100 * (row.MeanLatency - row.MeanOpt) / row.MeanOpt
		for _, s := range res.Suspensions {
			row.Suspensions += s
		}
		rows[rep] = row
	}
	return rows, nil
}

// ReplicationTable renders one row per replication under title.
func ReplicationTable(title string, rows []ReplicationRow) *report.Table {
	t := report.NewTable(title,
		"Replication", "Mean latency", "Mean optimum", "Regret %", "Mean payment",
		"Flags", "Suspensions", "Dropout rounds")
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%d", r.Rep),
			report.FormatFloat(r.MeanLatency),
			report.FormatFloat(r.MeanOpt),
			fmt.Sprintf("%.2f", r.RegretPct),
			report.FormatFloat(r.MeanPayment),
			fmt.Sprintf("%d", r.Flags),
			fmt.Sprintf("%d", r.Suspensions),
			fmt.Sprintf("%d", r.DropoutRounds),
		)
	}
	return t
}

func replicationTable() (*report.Table, error) {
	rows, err := ReplicationSweep(8, 12, 2026)
	if err != nil {
		return nil, err
	}
	return ReplicationTable(
		"Monte Carlo replication sweep (deviator + 3% message drop, 8 replications x 12 rounds).",
		rows), nil
}
