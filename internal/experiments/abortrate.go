package experiments

import (
	"fmt"
	"math/rand"

	"otpdb/internal/abcast"
	"otpdb/internal/otp"
)

// AbortRateParams configures the Section 3.2 claim reproduction: order
// mismatches between tentative and definitive delivery only cost aborts
// when the affected transactions conflict, so with enough conflict
// classes the abort rate stays low even under heavy mismatch.
type AbortRateParams struct {
	// Txns is the number of transactions per cell.
	Txns int
	// Classes is the swept number of conflict classes.
	Classes []int
	// MismatchProbs is the swept per-adjacent-pair swap probability of
	// the tentative order relative to the definitive one.
	MismatchProbs []float64
	// Seed fixes workload randomness.
	Seed int64
}

// abortRateParams covers the interesting region.
func abortRateParams(quick bool) AbortRateParams {
	p := AbortRateParams{
		Txns:          2000,
		Classes:       []int{1, 2, 4, 8, 16, 64},
		MismatchProbs: []float64{0.01, 0.05, 0.10, 0.25, 0.50},
		Seed:          7,
	}
	if quick {
		p.Txns = 500
	}
	return p
}

// abortExec is a minimal auto-completing executor for the sweep.
type abortExec struct{ mgr *otp.MultiManager }

func (e *abortExec) Submit(tx *otp.MultiTxn, epoch int) { e.mgr.OnExecuted(tx.ID, epoch) }
func (e *abortExec) Abort(*otp.MultiTxn)                {}
func (e *abortExec) Commit(*otp.MultiTxn)               {}

// AbortRateCell drives one OTP manager (one class per transaction) through a mismatched schedule with
// the given parameters and returns its stats — the unit the E2 table and
// the BenchmarkAbortRate benchmark share.
func AbortRateCell(txns, classes int, p float64, seed int64) otp.Stats {
	return runAbortCell(txns, classes, p, rand.New(rand.NewSource(seed)))
}

// runAbortCell drives one OTP manager through a mismatched schedule and
// returns its stats. Executions complete instantly, which maximises the
// number of executed-but-pending heads — the worst case for aborts.
func runAbortCell(txns, classes int, p float64, rng *rand.Rand) otp.Stats {
	exec := &abortExec{}
	mgr := otp.NewMultiManager(exec, otp.MultiHooks{})
	exec.mgr = mgr

	classOf := make([][]otp.ClassID, txns)
	for i := range classOf {
		classOf[i] = []otp.ClassID{otp.ClassID(fmt.Sprintf("c%d", rng.Intn(classes)))}
	}
	tentative := mismatchedOrder(txns, p, rng)
	id := func(n int) abcast.MsgID { return abcast.MsgID{Origin: 0, Seq: uint64(n + 1)} }

	// All Opt-deliveries in tentative order, then all TO-deliveries in
	// definitive order: the maximum-divergence interleaving.
	for _, n := range tentative {
		if err := mgr.OnOptDeliver(id(n), classOf[n], nil); err != nil {
			panic(err)
		}
	}
	for n := 0; n < txns; n++ {
		if err := mgr.OnTODeliver(id(n)); err != nil {
			panic(err)
		}
	}
	if mgr.Pending() != 0 {
		panic("abort-rate cell did not quiesce")
	}
	return mgr.Stats()
}

// mismatchedOrder produces a permutation of 0..n-1 where each adjacent
// pair is swapped with probability p — the standard model for tentative
// orders diverging from the definitive order by spontaneous-order misses.
func mismatchedOrder(n int, p float64, rng *rand.Rand) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	for i := 0; i+1 < n; i++ {
		if rng.Float64() < p {
			out[i], out[i+1] = out[i+1], out[i]
		}
	}
	return out
}

// AbortRate reproduces the Section 3.2 claim as a table: abort rate (CC8
// aborts per committed transaction) as a function of the number of
// conflict classes and the mismatch probability.
func AbortRate(p AbortRateParams) Table {
	cols := []string{"classes \\ mismatch"}
	for _, mp := range p.MismatchProbs {
		cols = append(cols, fmt.Sprintf("p=%.2f", mp))
	}
	t := Table{
		Title:   "E2 — abort rate vs conflict classes and order-mismatch probability (§3.2)",
		Columns: cols,
		Notes: []string{
			fmt.Sprintf("%d transactions per cell; executions complete instantly (worst case)", p.Txns),
			"paper claim: non-conflicting mismatches are free, so more classes => fewer aborts",
		},
	}
	for _, classes := range p.Classes {
		row := []string{fmt.Sprintf("%d", classes)}
		for i, mp := range p.MismatchProbs {
			rng := rand.New(rand.NewSource(p.Seed + int64(classes*1000+i)))
			st := runAbortCell(p.Txns, classes, mp, rng)
			row = append(row, fmt.Sprintf("%.2f%%", 100*float64(st.Aborts)/float64(st.Commits)))
		}
		t.AddRow(row...)
	}
	return t
}
