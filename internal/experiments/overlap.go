package experiments

import (
	"fmt"
	"strconv"
	"time"

	"otpdb"
	"otpdb/internal/metrics"
)

// OverlapParams configures the paper's headline experiment (§1, §4):
// starting a transaction at Opt-delivery hides the broadcast's ordering
// latency D behind the execution time E.
type OverlapParams struct {
	// ExecTime is the transaction service time E.
	ExecTime time.Duration
	// NetDelays sweeps the one-way message delay δ; the ordering costs a
	// follower's transaction D = 2δ (body out, decision back).
	NetDelays []time.Duration
	// Txns per cell.
	Txns int
}

// overlapParams sweeps D = 2δ from far below E to far above it.
func overlapParams(quick bool) OverlapParams {
	p := OverlapParams{
		ExecTime: 4 * time.Millisecond,
		NetDelays: []time.Duration{
			0,
			500 * time.Microsecond,
			1 * time.Millisecond,
			2 * time.Millisecond,
			4 * time.Millisecond,
			8 * time.Millisecond,
		},
		Txns: 40,
	}
	if quick {
		p.Txns = 15
	}
	return p
}

// overlapSite is where the client sits: a follower, whose transactions are
// ordered in two message delays like everybody's (site 0 coordinates
// round 0).
const overlapSite = 1

// overlapCell runs txns synchronous transactions of cost execTime from
// overlapSite of a three-site cluster with one-way delay netDelay, and
// returns the mean commit latency the client saw and the mean ordering
// latency D the site's broadcast engine measured: body in hand to
// TO-release, the engine's opt→def histogram under either ordering.
func overlapCell(execTime, netDelay time.Duration, txns int, ordering otpdb.Ordering) (commit, order time.Duration, err error) {
	reg := metrics.NewRegistry()
	cluster, err := otpdb.NewCluster(otpdb.WithReplicas(3), otpdb.WithNetworkDelay(netDelay),
		otpdb.WithOrdering(ordering), otpdb.WithMetrics(reg))
	if err != nil {
		return 0, 0, err
	}
	defer cluster.Stop()
	cluster.MustRegisterUpdate(otpdb.Update{
		Name:  "work",
		Class: "c",
		Cost:  execTime,
		Fn:    func(otpdb.UpdateCtx) (otpdb.Value, error) { return nil, nil },
	})
	if err := cluster.Start(); err != nil {
		return 0, 0, err
	}
	sess, err := cluster.Session(overlapSite)
	if err != nil {
		return 0, 0, err
	}
	ld, err := drive(sess, txns, 1, always("work"))
	if err != nil {
		return 0, 0, err
	}
	// The registry hands back the series the engine registered.
	optDef := reg.Scope("shard", "0", "site", strconv.Itoa(overlapSite)).Histogram("otp_opt_def_latency_seconds")
	if optDef.Count() < txns {
		return 0, 0, fmt.Errorf("overlap: opt→def histogram of site %d holds %d of %d transactions", overlapSite, optDef.Count(), txns)
	}
	return ld.Mean, optDef.Mean(), nil
}

// Overlap reproduces the §4 claim on the real stack — transport, consensus,
// broadcast engine, OTP scheduler, executor, storage — through the public
// API: with optimistic delivery the commit latency is max(E, D), with
// conservative delivery over the same broadcast it is E + D.
func Overlap(p OverlapParams) (Table, error) {
	t := Table{
		Title: "E3 — commit latency: OTP (overlapped) vs conservative (execute-after-order), one broadcast",
		Columns: []string{
			"delay", "D", "OTP mean", "conservative mean", "max(E,D)", "E+D",
			"OTP / max(E,D)", "conservative / (E+D)", "saving",
		},
		Notes: []string{
			fmt.Sprintf("E = %v (Update.Cost), %d synchronous transactions per cell from site %d of 3, one class, memnet with the one-way delay of column 1",
				p.ExecTime, p.Txns, overlapSite),
			"D is measured, not modelled: the mean opt→def latency of the submitting site's engine (otp_opt_def_latency_seconds) over both cells; two delays plus processing",
			"OTP / max(E,D) is the overlap efficiency: 1.00 means the shorter of ordering and execution is entirely hidden behind the longer",
			"paper claim (§4): commit ≈ max(E, D) with optimistic delivery, E + D without",
		},
	}
	for _, delay := range p.NetDelays {
		optMean, optD, err := overlapCell(p.ExecTime, delay, p.Txns, otpdb.OptimisticOrdering)
		if err != nil {
			return Table{}, err
		}
		consMean, consD, err := overlapCell(p.ExecTime, delay, p.Txns, otpdb.ConservativeOrdering)
		if err != nil {
			return Table{}, err
		}
		d := (optD + consD) / 2
		overlapped, serial := max(p.ExecTime, d), p.ExecTime+d
		t.AddRow(
			delay.String(),
			us(d),
			us(optMean),
			us(consMean),
			us(overlapped),
			us(serial),
			fmt.Sprintf("%.2f", float64(optMean)/float64(overlapped)),
			fmt.Sprintf("%.2f", float64(consMean)/float64(serial)),
			fmt.Sprintf("%.1f%%", 100*float64(consMean-optMean)/float64(consMean)),
		)
	}
	return t, nil
}
