package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"otpdb/internal/abcast"
	"otpdb/internal/db"
	"otpdb/internal/metrics"
	"otpdb/internal/sproc"
	"otpdb/internal/storage"
)

// OverlapParams configures the Section 1 headline experiment: overlapping
// transaction execution with the broadcast's coordination phase hides the
// delivery latency.
type OverlapParams struct {
	// ExecTime is the transaction service time E.
	ExecTime time.Duration
	// ConfirmDelays sweeps the Opt->TO confirmation delay D.
	ConfirmDelays []time.Duration
	// Txns per cell.
	Txns int
}

// overlapParams sweeps D around E.
func overlapParams(quick bool) OverlapParams {
	p := OverlapParams{
		ExecTime: 4 * time.Millisecond,
		ConfirmDelays: []time.Duration{
			0,
			1 * time.Millisecond,
			2 * time.Millisecond,
			4 * time.Millisecond,
			8 * time.Millisecond,
			16 * time.Millisecond,
		},
		Txns: 40,
	}
	if quick {
		p.Txns = 15
	}
	return p
}

// overlapCell measures mean commit latency with a scripted broadcast:
// optimistic mode Opt-delivers immediately and confirms after delay D;
// conservative mode delivers both after D (execute-after-order).
func overlapCell(execTime, confirm time.Duration, txns int, optimistic bool) (time.Duration, error) {
	var bc *abcast.Scripted
	var timers sync.WaitGroup
	bc = abcast.NewScripted(0, func(id abcast.MsgID, payload any) {
		if optimistic {
			bc.InjectOpt(id, payload)
			timers.Add(1)
			time.AfterFunc(confirm, func() {
				defer timers.Done()
				bc.InjectTO(id)
			})
			return
		}
		timers.Add(1)
		time.AfterFunc(confirm, func() {
			defer timers.Done()
			bc.InjectOpt(id, payload)
			bc.InjectTO(id)
		})
	})

	reg := sproc.NewRegistry()
	if err := reg.RegisterUpdate(sproc.Update{
		Name:  "work",
		Class: "c",
		Cost:  execTime,
		Fn:    func(sproc.UpdateCtx) (storage.Value, error) { return nil, nil },
	}); err != nil {
		return 0, err
	}
	rep, err := db.New(db.Config{ID: 0, Broadcast: bc, Registry: reg})
	if err != nil {
		return 0, err
	}
	rep.Start()
	defer func() {
		timers.Wait()
		rep.Stop()
		_ = bc.Stop()
	}()

	hist := metrics.NewHistogram()
	ctx := context.Background()
	for i := 0; i < txns; i++ {
		start := time.Now()
		if _, err := rep.Exec(ctx, "work"); err != nil {
			return 0, err
		}
		hist.Observe(time.Since(start))
	}
	return hist.Mean(), nil
}

// Overlap reproduces the Section 1 claim: with optimistic delivery the
// commit latency approaches max(E, D) while conservative processing pays
// E + D; the saving grows with the confirmation delay until D dominates.
func Overlap(p OverlapParams) (Table, error) {
	t := Table{
		Title: "E3 — commit latency: OTP (overlapped) vs conservative (execute-after-order)",
		Columns: []string{
			"confirm delay D", "OTP mean", "conservative mean", "model max(E,D)", "model E+D", "saving",
		},
		Notes: []string{
			fmt.Sprintf("transaction service time E = %v, %d transactions per cell, one class", p.ExecTime, p.Txns),
			"paper claim (§1): the ABcast coordination is hidden behind execution when D <~ E",
		},
	}
	for _, d := range p.ConfirmDelays {
		optMean, err := overlapCell(p.ExecTime, d, p.Txns, true)
		if err != nil {
			return Table{}, err
		}
		consMean, err := overlapCell(p.ExecTime, d, p.Txns, false)
		if err != nil {
			return Table{}, err
		}
		modelOpt := p.ExecTime
		if d > modelOpt {
			modelOpt = d
		}
		saving := 0.0
		if consMean > 0 {
			saving = 100 * float64(consMean-optMean) / float64(consMean)
		}
		t.AddRow(
			d.String(),
			optMean.Round(time.Microsecond).String(),
			consMean.Round(time.Microsecond).String(),
			modelOpt.String(),
			(p.ExecTime + d).String(),
			fmt.Sprintf("%.1f%%", saving),
		)
	}
	return t, nil
}
