// Command faulttolerance crashes a minority of replicas in the middle of
// a run, shows that the cluster keeps committing (the optimistic atomic
// broadcast's consensus stages need only a majority), then brings the
// victims back with RestartSite: each rejoins from a peer checkpoint
// plus the definitive deliveries it missed, submits new transactions of
// its own, and all five sites reconverge to identical state (Section 2:
// crash failures; Section 3.2: recovery).
//
//	go run ./examples/faulttolerance
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"otpdb"
)

const (
	sites        = 5
	beforeCrash  = 20
	afterCrash   = 20
	afterRejoin  = 10
	crashVictims = 2 // a minority of 5
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cluster, err := otpdb.NewCluster(otpdb.WithReplicas(sites))
	if err != nil {
		return err
	}
	defer cluster.Stop()

	cluster.MustRegisterUpdate(otpdb.Update{
		Name:  "append",
		Class: "log",
		Fn: func(ctx otpdb.UpdateCtx) (otpdb.Value, error) {
			n, _ := ctx.Read("count")
			next := otpdb.Int64(otpdb.AsInt64(n) + 1)
			return next, ctx.Write("count", next)
		},
	})
	if err := cluster.Start(); err != nil {
		return err
	}
	ctx := context.Background()

	// Phase 1: all sites healthy. Sessions return typed results: the
	// count after each append and the definitive order index.
	var lastTO int64
	for i := 0; i < beforeCrash; i++ {
		sess, err := cluster.Session(i % sites)
		if err != nil {
			return err
		}
		res, err := sess.Exec(ctx, "append")
		if err != nil {
			return fmt.Errorf("pre-crash append %d: %w", i, err)
		}
		lastTO = res.TOIndex
	}
	fmt.Printf("phase 1: %d transactions committed on %d healthy sites (last TO index %d)\n",
		beforeCrash, sites, lastTO)

	// Phase 2: crash a minority.
	for v := 0; v < crashVictims; v++ {
		victim := sites - 1 - v
		if err := cluster.CrashSite(victim); err != nil {
			return err
		}
		fmt.Printf("crashed site %d\n", victim)
	}

	// Phase 3: the survivors keep committing (majority alive). Note the
	// submitting sites must be survivors.
	survivors := sites - crashVictims
	for i := 0; i < afterCrash; i++ {
		sess, err := cluster.Session(i % survivors)
		if err != nil {
			return err
		}
		ectx, cancel := context.WithTimeout(ctx, 30*time.Second)
		res, err := sess.Exec(ectx, "append")
		cancel()
		if err != nil {
			return fmt.Errorf("post-crash append %d: %w", i, err)
		}
		lastTO = res.TOIndex
	}
	fmt.Printf("phase 3: %d more transactions committed with %d/%d sites alive (last TO index %d)\n",
		afterCrash, survivors, sites, lastTO)

	// Phase 4: bring the victims back. Each rejoins live — a peer
	// checkpoint plus the missed definitive deliveries — and then
	// submits new transactions of its own.
	rctx, rcancel := context.WithTimeout(ctx, 30*time.Second)
	defer rcancel()
	for v := 0; v < crashVictims; v++ {
		victim := sites - 1 - v
		if err := cluster.RestartSite(rctx, victim); err != nil {
			return fmt.Errorf("restart site %d: %w", victim, err)
		}
		fmt.Printf("restarted site %d\n", victim)
	}
	for i := 0; i < afterRejoin; i++ {
		sess, err := cluster.Session(i % sites) // all five sites submit again
		if err != nil {
			return err
		}
		ectx, cancel := context.WithTimeout(ctx, 30*time.Second)
		res, err := sess.Exec(ectx, "append")
		cancel()
		if err != nil {
			return fmt.Errorf("post-rejoin append %d: %w", i, err)
		}
		lastTO = res.TOIndex
	}
	total := beforeCrash + afterCrash + afterRejoin
	fmt.Printf("phase 4: %d more transactions committed with all %d sites alive (last TO index %d)\n",
		afterRejoin, sites, lastTO)

	// Verify ALL five sites agree and hold the full history.
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := cluster.WaitForCommits(wctx, total); err != nil {
		return err
	}
	ok, err := cluster.Converged()
	if err != nil {
		return err
	}
	v, _, err := cluster.Read(sites-1, "log", "count") // read at a restarted site
	if err != nil {
		return err
	}
	fmt.Printf("all %d sites converged: %v; count = %d (want %d)\n",
		sites, ok, otpdb.AsInt64(v), total)
	if !ok || otpdb.AsInt64(v) != int64(total) {
		return fmt.Errorf("fault tolerance demonstration failed")
	}
	return nil
}
