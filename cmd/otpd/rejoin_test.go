package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"otpdb/internal/testutil"
)

// TestKill9Rejoin is the acceptance test for transport-native state
// transfer: a 3-process otpd cluster loses one replica to SIGKILL, the
// survivors keep committing, and the restarted process — no
// whole-cluster restart — rejoins through statex, reaches a matching
// commit index and digest, and serves EXEC/QUERY again. One row per way
// back in: a durable replica restarted with the same flags advertises
// its recovered index and fetches the tail it missed; an in-memory
// replica restarted with -join holds nothing, and after a first phase
// longer than the survivors' retained history it is handed a checkpoint
// it must resume numbering above.
//
// Both rows commit while the victim is down. What the survivors broadcast
// meanwhile sits in their TCP links and reaches the restarted process
// again; a tail names those messages, and for the joiner whose transfer
// was a bare checkpoint the donor's delivered sets do (DESIGN.md §8): it
// used to deliver them a second time.
func TestKill9Rejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "otpd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, row := range []struct {
		name    string
		durable bool
		phase1  int // commits before the crash
		phase2  int // commits while the victim is down
	}{
		{name: "durable", durable: true, phase1: 25, phase2: 25},
		// Past the 64Ki-entry retained history, so index 1 is gone.
		{name: "in-memory -join", phase1: 66000, phase2: 25},
	} {
		t.Run(row.name, func(t *testing.T) {
			kill9Rejoin(t, bin, row.durable, row.phase1, row.phase2)
		})
	}
}

func kill9Rejoin(t *testing.T, bin string, durable bool, phase1, phase2 int) {
	const n = 3
	tmp := t.TempDir()
	peerAddrs := make([]string, n)
	clientAddrs := make([]string, n)
	for i := 0; i < n; i++ {
		peerAddrs[i] = freeAddr(t)
		clientAddrs[i] = freeAddr(t)
	}
	peers := strings.Join(peerAddrs, ",")
	start := func(i int, extra ...string) *exec.Cmd {
		args := []string{"-id", fmt.Sprint(i), "-peers", peers, "-client", clientAddrs[i]}
		if durable {
			args = append(args, "-data", filepath.Join(tmp, fmt.Sprintf("data-%d", i)), "-fsync", "commit")
		}
		cmd := exec.Command(bin, append(args, extra...)...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start otpd %d: %v", i, err)
		}
		return cmd
	}

	procs := make([]*exec.Cmd, n)
	for i := 0; i < n; i++ {
		procs[i] = start(i)
	}
	defer func() {
		for _, p := range procs {
			if p != nil && p.Process != nil {
				_ = p.Process.Kill()
			}
		}
	}()

	conn0 := dialRetry(t, clientAddrs[0])
	defer func() { _ = conn0.Close() }()

	// Phase 1: acknowledged load through replica 0 with all three up.
	submitAdds(t, conn0, "k", phase1)

	// Let the victim catch up before killing it: a commit acknowledges
	// at the submitting site only, and on a starved CI machine replica 2
	// can lag the whole phase — the durable row wants a victim with
	// durable local state, so the restart exercises recovery + tail
	// transfer.
	victim := 2
	{
		vc := dialRetry(t, clientAddrs[victim])
		testutil.Eventually(t, 60*time.Second, "victim to catch up before the crash", func() bool {
			return statField(t, roundTrip(t, vc, "STATS"), "commits") >= int64(phase1)
		})
		_ = vc.Close()
	}

	// Kill -9 replica 2; the survivors form a majority and keep serving.
	if err := procs[victim].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	_, _ = procs[victim].Process.Wait()
	for i := 0; i < phase2; i++ {
		execAdd(t, conn0, "k", 1)
	}

	// Restart the victim — the durable one with the same flags: it must
	// recover its local state and fetch the missed tail from a live
	// donor; the in-memory one with -join — and wait until it serves. No
	// other process is restarted.
	if durable {
		procs[victim] = start(victim)
	} else {
		procs[victim] = start(victim, "-join")
	}
	conn2 := dialRetry(t, clientAddrs[victim])
	defer func() { _ = conn2.Close() }()

	stats := waitServing(t, conn2, 60*time.Second)
	if rec := statField(t, stats, "recovered"); rec <= 0 {
		t.Fatalf("restarted replica reports recovered=%d, expected a recovered or transferred base (STATS %q)", rec, stats)
	}

	// The restarted replica serves reads and writes in agreement with
	// the survivors: the counter continues exactly where the cluster is.
	want := int64(phase1 + phase2 + 1)
	if got := execAdd(t, conn2, "k", 1); got != want {
		t.Fatalf("post-rejoin commit at restarted replica = %d, want %d", got, want)
	}
	if got := queryGet(t, conn2, "p0", "k"); got != want {
		t.Fatalf("post-rejoin query at restarted replica = %d, want %d", got, want)
	}

	// All three replicas converge to one commit index and one digest
	// while every process keeps running.
	conn1 := dialRetry(t, clientAddrs[1])
	defer func() { _ = conn1.Close() }()
	var state [n]string
	testutil.EventuallyOr(t, 60*time.Second, "commit indexes and digests to converge", func() bool {
		for i, conn := range []net.Conn{conn0, conn1, conn2} {
			state[i] = fmt.Sprintf("to=%d digest=%s", statField(t, roundTrip(t, conn, "STATS"), "to"), digest(t, conn))
		}
		return strings.HasPrefix(state[0], fmt.Sprintf("to=%d ", want)) &&
			state[0] == state[1] && state[1] == state[2]
	}, func() {
		t.Logf("last states: %v", state)
	})

	// And the survivors were never restarted: they still answer on the
	// connections opened before the crash.
	if got := execAdd(t, conn0, "k", 1); got != want+1 {
		t.Fatalf("survivor commit after rejoin = %d, want %d", got, want+1)
	}
}

// submitAdds commits n add-p0 <key> 1 transactions through one
// connection, pipelined in windows: SUBMIT a window, WAIT for its last
// handle (one origin's transactions commit in submission order).
func submitAdds(t *testing.T, conn net.Conn, key string, n int) {
	t.Helper()
	_ = conn.SetDeadline(time.Now().Add(2 * time.Minute))
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	line := func() string {
		reply, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("read reply: %v", err)
		}
		return strings.TrimSpace(reply)
	}
	const window = 512
	for done := 0; done < n; {
		k := min(window, n-done)
		for i := 0; i < k; i++ {
			fmt.Fprintf(w, "SUBMIT add-p0 %s 1\n", key)
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("send SUBMITs: %v", err)
		}
		var id string
		for i := 0; i < k; i++ {
			reply := line()
			var ok bool
			if id, ok = strings.CutPrefix(reply, "ID "); !ok {
				t.Fatalf("SUBMIT reply: %q", reply)
			}
		}
		fmt.Fprintf(w, "WAIT %s\n", id)
		if err := w.Flush(); err != nil {
			t.Fatalf("send WAIT: %v", err)
		}
		if reply := line(); !strings.HasPrefix(reply, "OK ") {
			t.Fatalf("WAIT reply: %q", reply)
		}
		done += k
	}
}

// waitServing waits until the replica reports role=serving (or donor,
// which implies serving) and returns the final STATS line.
func waitServing(t *testing.T, conn net.Conn, timeout time.Duration) string {
	t.Helper()
	var reply string
	testutil.EventuallyOr(t, timeout, "replica to reach role=serving", func() bool {
		reply = roundTrip(t, conn, "STATS")
		return strings.Contains(reply, "role=serving") || strings.Contains(reply, "role=donor")
	}, func() {
		t.Logf("last STATS: %q", reply)
	})
	return reply
}

// statField extracts an integer key=value field from a STATS reply.
func statField(t *testing.T, reply, key string) int64 {
	t.Helper()
	for _, f := range strings.Fields(reply) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			var n int64
			if _, err := fmt.Sscanf(v, "%d", &n); err != nil {
				t.Fatalf("STATS field %s=%q: %v", key, v, err)
			}
			return n
		}
	}
	t.Fatalf("STATS reply without %s=: %q", key, reply)
	return 0
}

// digest fetches the DIGEST reply.
func digest(t *testing.T, conn net.Conn) string {
	t.Helper()
	reply := roundTrip(t, conn, "DIGEST")
	if !strings.HasPrefix(reply, "DIGEST ") {
		t.Fatalf("DIGEST reply: %q", reply)
	}
	return strings.TrimPrefix(reply, "DIGEST ")
}
