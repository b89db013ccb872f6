package main

import (
	"context"
	"fmt"
	"time"

	"otpdb"
)

// convergeTimeout bounds how long the gate waits for the other sites to
// apply what the origin sites have already acknowledged. Normally that
// takes milliseconds; a cluster caught in a retransmission storm (README,
// caveats) can end its window with one site hundreds of commits behind and
// needs seconds.
const convergeTimeout = 60 * time.Second

// gate is the correctness check every workload ends with. It returns every
// violation it finds — none means the outputs are correct — and how many
// values it compared, as evidence that it ran.
//
// want is the per-key count of acknowledged commits (including the set-up
// commits), so the per-key comparison says three things at once: nothing
// acknowledged was lost, nothing was applied twice (put is a
// read-modify-write), and the three sites agree.
func gate(sys system, want *tally) (bad []string, checked int) {
	total := want.total()
	// The origin acknowledged everything; the other sites may still be
	// applying the tail.
	deadline := time.Now().Add(convergeTimeout)
	for {
		settled := true
		for site := 0; site < sites; site++ {
			if n, err := sys.lastIndex(site); err != nil || n < total {
				settled = false
			}
		}
		if settled || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	var digests [sites]uint64
	for site := 0; site < sites; site++ {
		n, err := sys.lastIndex(site)
		if err != nil || n != total {
			bad = append(bad, fmt.Sprintf("site %d: last index %d (err %v), want %d acknowledged commits", site, n, err, total))
		}
		if digests[site], err = sys.digest(site); err != nil {
			bad = append(bad, fmt.Sprintf("site %d: digest: %v", site, err))
		}
		if digests[site] != digests[0] {
			bad = append(bad, fmt.Sprintf("site %d diverged: digest %x, site 0 has %x", site, digests[site], digests[0]))
		}
		mismatches := 0
		for c := 0; c < numClasses; c++ {
			for k := 0; k < keysPerClass; k++ {
				got, err := sys.counter(site, c, k)
				checked++
				if err != nil || got != int64(want[c][k]) {
					if mismatches++; mismatches <= 3 {
						bad = append(bad, fmt.Sprintf("site %d %s/%s: counter %d (err %v), want %d",
							site, classNames[c], keyNames[k], got, err, want[c][k]))
					}
				}
			}
		}
		if mismatches > 3 {
			bad = append(bad, fmt.Sprintf("site %d: %d keys differ from the acknowledged commits", site, mismatches))
		}
		for g := 0; g < scanGroups; g++ {
			ctx, cancel := context.WithTimeout(context.Background(), ackTimeout)
			got, err := sys.query(ctx, site, g)
			cancel()
			checked++
			if sum := want.groupSum(g); err != nil || got != sum {
				bad = append(bad, fmt.Sprintf("site %d scan(%d) = %d (err %v), want %d", site, g, got, err, sum))
				break
			}
		}
	}
	if err := sys.checkInvariants(); err != nil {
		bad = append(bad, fmt.Sprintf("scheduler invariants: %v", err))
	}
	return bad, checked
}

// reopens is how many times wal_restart recovers its data directory;
// the reported rate is the median.
const reopens = 3

// reopen starts a fresh cluster on a stopped one's data directory and
// checks that all three sites recover exactly the state that was there:
// same last index, same digest. It returns the time from otpdb.NewCluster
// to the last site's check.
func reopen(opts []otpdb.Option, wantIndex int64, wantDigest uint64) (time.Duration, []string) {
	start := time.Now()
	f, err := startFacade(opts)
	if err != nil {
		return 0, []string{fmt.Sprintf("reopen: %v", err)}
	}
	defer f.stop()
	var bad []string
	for site := 0; site < sites; site++ {
		idx, err := f.c.RecoveredIndex(site)
		if err != nil || idx != wantIndex {
			bad = append(bad, fmt.Sprintf("reopen: site %d recovered index %d (err %v), want %d", site, idx, err, wantIndex))
		}
		d, err := f.c.DigestAt(site)
		if err != nil || d != wantDigest {
			bad = append(bad, fmt.Sprintf("reopen: site %d digest %x (err %v), want %x", site, d, err, wantDigest))
		}
	}
	return time.Since(start), bad
}
