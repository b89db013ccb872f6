package experiments

import (
	"context"
	"fmt"
	"time"
)

// This file is E11 (DESIGN.md §4): the reconfiguration benchmark. The
// headline quantity is replacement time — the wall clock from
// ReplaceSite being issued against a dead site to the fresh incarnation
// serving in agreement with the survivors (every missed commit applied,
// digests equal). The change itself is one definitively-ordered
// transaction, so the cost is dominated by the state transfer, exactly
// as in E10; the extra work the epoch machinery adds (quorum switch,
// tracker fan-out) is what this experiment bounds. A grow cell times
// AddSite the same way.

// ReconfigParams sizes E11.
type ReconfigParams struct {
	// Sites is the starting cluster size (the last site is the victim).
	Sites int
	// Backlogs sweeps how many commits land while the victim is down.
	Backlogs []int
	// Keys is the keyspace width.
	Keys int
}

// reconfigParams sizes E11; quick shrinks the sweep for CI smoke runs.
func reconfigParams(quick bool) ReconfigParams {
	p := ReconfigParams{Sites: 3, Backlogs: []int{500, 2000, 8000}, Keys: 64}
	if quick {
		p.Backlogs = []int{100, 400}
		p.Keys = 32
	}
	return p
}

// ReconfigCell is one measured membership operation.
type ReconfigCell struct {
	// Op is "replace" or "add".
	Op string
	// Missed is the number of commits the dead site missed ("replace")
	// or the group had already committed ("add").
	Missed int
	// Epoch is the membership epoch after the change.
	Epoch uint64
	// OpMillis is the wall time from the operation being issued to the
	// new/replacement site serving in agreement (all missed commits
	// applied at every live site).
	OpMillis float64
	// MissedPerSec is Missed / op time — catch-up bandwidth including
	// the reconfiguration overhead.
	MissedPerSec float64
}

// ReconfigReport is E11's result.
type ReconfigReport struct {
	Cells []ReconfigCell
}

// ReconfigBench runs E11.
func ReconfigBench(p ReconfigParams) (ReconfigReport, error) {
	var rep ReconfigReport
	for _, missed := range p.Backlogs {
		cell, err := reconfigCell(p, missed, "replace")
		if err != nil {
			return rep, fmt.Errorf("reconfig (replace, %d missed): %w", missed, err)
		}
		rep.Cells = append(rep.Cells, cell)
	}
	// One grow cell at the largest backlog: AddSite of a fresh site into
	// a warm group.
	last := p.Backlogs[len(p.Backlogs)-1]
	cell, err := reconfigCell(p, last, "add")
	if err != nil {
		return rep, fmt.Errorf("reconfig (add, %d committed): %w", last, err)
	}
	rep.Cells = append(rep.Cells, cell)
	return rep, nil
}

// reconfigCell measures one membership operation end to end, from the
// same starting state as an E10 cell (the victim is down only for a
// replace).
func reconfigCell(p ReconfigParams, missed int, op string) (ReconfigCell, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	cluster, committed, err := backlogCluster(ctx, p.Sites, p.Keys, missed, op == "replace")
	if err != nil {
		return ReconfigCell{}, err
	}
	defer cluster.Stop()

	start := time.Now()
	target := p.Sites - 1
	if op == "replace" {
		err = cluster.ReplaceSite(ctx, target)
	} else {
		target, err = cluster.AddSite(ctx)
	}
	if err != nil {
		return ReconfigCell{}, err
	}
	// The operation is complete once every live site — including the
	// new/replacement one — has committed everything plus the change.
	if err := cluster.WaitForCommits(ctx, committed+1); err != nil {
		return ReconfigCell{}, err
	}
	elapsed := time.Since(start)

	if err := agree(cluster, target); err != nil {
		return ReconfigCell{}, fmt.Errorf("after %s: %w", op, err)
	}
	epoch, err := cluster.Epoch(target)
	if err != nil {
		return ReconfigCell{}, err
	}
	if epoch != 2 {
		return ReconfigCell{}, fmt.Errorf("epoch after %s = %d, want 2", op, epoch)
	}
	return ReconfigCell{
		Op:           op,
		Missed:       missed,
		Epoch:        epoch,
		OpMillis:     float64(elapsed.Nanoseconds()) / 1e6,
		MissedPerSec: float64(missed) / elapsed.Seconds(),
	}, nil
}

// Table renders E11 as the otpbench plain-text tables.
func (r ReconfigReport) Table() Table {
	t := Table{
		Title: "E11 — Reconfiguration: replace/grow a live group",
		Columns: []string{
			"op", "missed", "epoch", "time", "catch-up rate",
		},
	}
	for _, c := range r.Cells {
		t.AddRow(c.Op, fmt.Sprintf("%d", c.Missed), fmt.Sprintf("%d", c.Epoch),
			fmt.Sprintf("%.1fms", c.OpMillis),
			fmt.Sprintf("%.0f missed/s", c.MissedPerSec))
	}
	return t
}
