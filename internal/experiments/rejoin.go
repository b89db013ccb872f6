package experiments

import (
	"context"
	"fmt"
	"time"

	"otpdb"
)

// This file is E10 (DESIGN.md §4): the state-transfer benchmark. One
// quantity, two regimes: how long a crashed replica takes to rejoin a
// running cluster as a function of how many definitive deliveries it
// missed, under each statex transfer mode —
//
//   - tail-only: the survivors' retained definitive history covers the
//     gap, so catch-up replays the missed deliveries through the
//     scheduler (cost grows with the backlog);
//   - checkpoint+tail: the retention ring has evicted the gap, so the
//     donor streams a full checkpoint first (cost is dominated by state
//     size, not backlog length).

// RejoinParams sizes E10.
type RejoinParams struct {
	// Sites is the cluster size (the last site is the victim).
	Sites int
	// Backlogs sweeps how many commits land while the victim is down.
	Backlogs []int
	// Keys is the keyspace width, which sets the checkpoint size.
	Keys int
	// EvictCap is the retained-history cap used in the checkpoint-mode
	// cells, small enough that every Backlogs value overflows it.
	EvictCap int
}

// rejoinParams sizes E10; quick shrinks the sweep for CI smoke runs.
func rejoinParams(quick bool) RejoinParams {
	p := RejoinParams{Sites: 3, Backlogs: []int{500, 2000, 8000}, Keys: 64, EvictCap: 64}
	if quick {
		p.Backlogs = []int{100, 400}
		p.Keys = 32
	}
	return p
}

// RejoinCell is one measured rejoin.
type RejoinCell struct {
	// Missed is the number of commits the victim was down for.
	Missed int
	// Mode is the negotiated transfer shape ("tail-only" or
	// "checkpoint+tail").
	Mode string
	// RejoinMillis is the wall time from RestartSite to the victim
	// having committed every missed transaction.
	RejoinMillis float64
	// MissedPerSec is Missed / rejoin time — catch-up bandwidth.
	MissedPerSec float64
}

// RejoinReport is E10's result.
type RejoinReport struct {
	Cells []RejoinCell
}

// RejoinBench runs E10.
func RejoinBench(p RejoinParams) (RejoinReport, error) {
	var rep RejoinReport
	for _, missed := range p.Backlogs {
		for _, evict := range []bool{false, true} {
			cell, err := rejoinCell(p, missed, evict)
			if err != nil {
				return rep, fmt.Errorf("rejoin (%d missed, evict=%v): %w", missed, evict, err)
			}
			rep.Cells = append(rep.Cells, cell)
		}
	}
	return rep, nil
}

// backlogCluster is where every E10/E11 cell starts measuring: a cluster
// of `sites` replicas with a keyed "bump" procedure, a committed warm-up,
// the last site crashed if crash is set, and `missed` further commits
// through site 0. It returns the cluster (the caller stops it) and how
// many transactions every live site has committed.
func backlogCluster(ctx context.Context, sites, keys, missed int, crash bool, opts ...otpdb.Option) (*otpdb.Cluster, int, error) {
	cluster, err := otpdb.NewCluster(append(opts, otpdb.WithReplicas(sites))...)
	if err != nil {
		return nil, 0, err
	}
	cluster.MustRegisterUpdate(otpdb.Update{
		Name:  "bump",
		Class: "c",
		Fn: func(ctx otpdb.UpdateCtx) (otpdb.Value, error) {
			key := otpdb.Key(otpdb.AsString(ctx.Args()[0]))
			v, _ := ctx.Read(key)
			next := otpdb.Int64(otpdb.AsInt64(v) + 1)
			return next, ctx.Write(key, next)
		},
	})
	const warm = 20
	commit := func(from, to int) error {
		for i := from; i < to; i++ {
			if _, err := cluster.Submit(0, "bump", otpdb.String(fmt.Sprintf("k%d", i%keys))); err != nil {
				return err
			}
		}
		return cluster.WaitForCommits(ctx, to)
	}
	err = cluster.Start()
	if err == nil {
		err = commit(0, warm)
	}
	if err == nil && crash {
		err = cluster.CrashSite(sites - 1)
	}
	if err == nil {
		err = commit(warm, warm+missed)
	}
	if err != nil {
		cluster.Stop()
		return nil, 0, err
	}
	return cluster, warm + missed, nil
}

// agree fails unless site's state digest equals site 0's.
func agree(cluster *otpdb.Cluster, site int) error {
	d0, err := cluster.DigestAt(0)
	if err != nil {
		return err
	}
	d, err := cluster.DigestAt(site)
	if err != nil {
		return err
	}
	if d != d0 {
		return fmt.Errorf("site %d digest diverged from site 0", site)
	}
	return nil
}

// rejoinCell crashes the last site, commits `missed` transactions
// through the survivors, and times the full rejoin. With evict set the
// cluster's retained history is capped below `missed`, forcing the
// checkpoint+tail fallback; the cell fails if the negotiated mode is
// not the one the configuration was built to produce.
func rejoinCell(p RejoinParams, missed int, evict bool) (RejoinCell, error) {
	var opts []otpdb.Option
	wantMode := "tail-only"
	if evict {
		opts = append(opts, otpdb.WithDefLogCap(p.EvictCap))
		wantMode = "checkpoint+tail"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	cluster, committed, err := backlogCluster(ctx, p.Sites, p.Keys, missed, true, opts...)
	if err != nil {
		return RejoinCell{}, err
	}
	defer cluster.Stop()
	victim := p.Sites - 1

	start := time.Now()
	if err := cluster.RestartSite(ctx, victim); err != nil {
		return RejoinCell{}, err
	}
	// Rejoin is complete once the victim has committed everything it
	// missed (WaitForCommits spans every live site again).
	if err := cluster.WaitForCommits(ctx, committed); err != nil {
		return RejoinCell{}, err
	}
	elapsed := time.Since(start)

	mode, err := cluster.RejoinMode(victim)
	if err != nil {
		return RejoinCell{}, err
	}
	if mode != wantMode {
		return RejoinCell{}, fmt.Errorf("negotiated %s, cell is built for %s", mode, wantMode)
	}
	if err := agree(cluster, victim); err != nil {
		return RejoinCell{}, err
	}
	return RejoinCell{
		Missed:       missed,
		Mode:         mode,
		RejoinMillis: float64(elapsed.Nanoseconds()) / 1e6,
		MissedPerSec: float64(missed) / elapsed.Seconds(),
	}, nil
}

// Table renders E10 as the otpbench plain-text tables.
func (r RejoinReport) Table() Table {
	t := Table{
		Title: "E10 — Live rejoin via state transfer",
		Columns: []string{
			"mode", "missed", "rejoin", "catch-up rate",
		},
	}
	for _, c := range r.Cells {
		t.AddRow(c.Mode, fmt.Sprintf("%d", c.Missed),
			fmt.Sprintf("%.1fms", c.RejoinMillis),
			fmt.Sprintf("%.0f missed/s", c.MissedPerSec))
	}
	return t
}
