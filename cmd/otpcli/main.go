// Command otpcli talks to an otpd replica and prints the replies. See
// cmd/otpd for the protocol and an example cluster; run otpcli without
// arguments for the grammar. Both are internal/lineproto's verb table,
// which also tells otpcli how many lines a reply has.
//
// One-shot mode sends a single command:
//
//	otpcli -addr :7070 EXEC add-p0 mykey 5
//	otpcli -addr :7071 QUERY get p0 mykey
//	otpcli -addr :7072 STATS
//
// STATUS is the operator's convenience view: the same counters as
// STATS, rendered one per line — including the replica's definitive
// index (to), its locally recovered index, and its current role
// (joining while a state transfer catches it up, serving, or donor
// while it streams state to another joiner):
//
//	$ otpcli -addr :7072 STATUS
//	commits:   1042
//	...
//	role:      serving
//
// METRICS pretty-prints the replica's metrics registry grouped by family
// (use the raw protocol via -stdin for machine consumption), and
// TRACE <id> renders a transaction's lifecycle spans — stitched
// cluster-wide by the server when given a trace ID like tx0.1.7 — as a
// waterfall, with the optimistic window (opt-deliver → to-deliver gap)
// called out per shard:
//
//	$ otpcli -addr :7070 METRICS
//	otp_commits_total
//	  {shard=0,site=0}             1042
//	...
//
//	$ otpcli -addr :7070 TRACE tx0.1.7
//	TRACE tx0.1.7 n=7 — 7 spans, 3 site(s), 4.312ms total
//	   0.000ms  █···  site 0 shard -1  x-submit     x0.1.7
//	   0.412ms  ··█·  site 1 shard 1   opt-deliver  m1.0.9
//	   3.907ms  ···█  site 1 shard 1   to-deliver   m1.0.9  (opt→def 3.495ms)
//	...
//
// Use -stdin to get the raw JSON span lines instead of the waterfall.
//
// Pipelined mode (-stdin) keeps one connection open and sends every line
// read from standard input, printing one reply per line. Because SUBMIT
// handles are per-connection, this is how WAIT is used — and how many
// transactions are kept in flight at once:
//
//	printf 'SUBMIT add-p0 k 1\nSUBMIT add-p0 k 2\nWAIT 0.1\nWAIT 0.2\n' \
//	    | otpcli -addr :7070 -stdin
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"otpdb/internal/lineproto"
)

func main() {
	addr := flag.String("addr", ":7070", "otpd client address")
	stdin := flag.Bool("stdin", false, "read newline-separated commands from stdin over one connection")
	flag.Parse()
	if !*stdin && flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: otpcli [-addr host:port] COMMAND [args...]")
		fmt.Fprintln(os.Stderr, "       otpcli [-addr host:port] -stdin < commands.txt")
		fmt.Fprintln(os.Stderr, "commands and their replies:")
		fmt.Fprintln(os.Stderr, "  "+strings.ReplaceAll(lineproto.Grammar(), "\n", "\n  "))
		os.Exit(2)
	}
	var err error
	if *stdin {
		err = runStdin(*addr)
	} else {
		err = run(*addr, flag.Args())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "otpcli:", err)
		os.Exit(1)
	}
}

func run(addr string, args []string) error {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer func() { _ = conn.Close() }()
	line := strings.Join(args, " ")
	if _, err := fmt.Fprintln(conn, line); err != nil {
		return err
	}
	sc := bufio.NewScanner(conn)
	if !sc.Scan() {
		return fmt.Errorf("no reply: %v", sc.Err())
	}
	// The verb table says how the reply is framed: how many lines the
	// first one announces after it.
	lines := []string{sc.Text()}
	v, _, _ := lineproto.Lookup(strings.Fields(line))
	if v != nil {
		for i := lineproto.Continuation(v, lines[0]); i > 0 && sc.Scan(); i-- {
			lines = append(lines, sc.Text())
		}
	}
	switch {
	case strings.EqualFold(args[0], "STATUS"):
		printStatus(lines)
	case v != nil && v.Name == "METRICS":
		printMetrics(lines)
	case v != nil && v.Name == "TRACE":
		printTrace(lines)
	default:
		fmt.Println(strings.Join(lines, "\n"))
	}
	return nil
}

// printMetrics pretty-prints a METRICS reply: series grouped by family
// name, label sets and readings aligned under each. Anything unexpected
// is printed verbatim.
func printMetrics(lines []string) {
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "METRICS") {
		fmt.Println(strings.Join(lines, "\n"))
		return
	}
	lastFamily := ""
	for _, line := range lines[1:] {
		name, rest, _ := strings.Cut(line, " ")
		family := name
		labels := ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			family, labels = name[:i], name[i:]
		}
		if family != lastFamily {
			lastFamily = family
			fmt.Println(family)
		}
		if labels == "" {
			labels = "{}"
		}
		fmt.Printf("  %-28s %s\n", labels, rest)
	}
}

// traceSpan mirrors the span JSON otpd emits on TRACE continuation
// lines (internal/metrics.TraceEvent).
type traceSpan struct {
	Txn   string    `json:"txn"`
	Trace string    `json:"trace"`
	Span  string    `json:"span"`
	Site  int       `json:"site"`
	Shard int       `json:"shard"`
	At    time.Time `json:"at"`
	Note  string    `json:"note"`
}

// printTrace renders a TRACE reply as a waterfall: one line per span in
// causal order, offset from the first span, with a proportional-position
// marker column so the shape of the transaction (where the time went) is
// visible at a glance. The optimistic window — the gap between a shard's
// first opt-deliver and its to-deliver — is called out inline, because
// that gap is the whole point of OPT-ABcast: work done inside it is free
// when the orders agree and wasted when they do not. Anything unexpected
// (an ERR, an older server) is printed verbatim; use -stdin for the raw
// JSON lines.
func printTrace(lines []string) {
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "TRACE") {
		fmt.Println(strings.Join(lines, "\n"))
		return
	}
	spans := make([]traceSpan, 0, len(lines)-1)
	for _, line := range lines[1:] {
		var s traceSpan
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			fmt.Println(strings.Join(lines, "\n"))
			return
		}
		spans = append(spans, s)
	}
	t0, tN := spans[0].At, spans[0].At
	sites := map[int]bool{}
	title := spans[0].Txn
	for _, s := range spans {
		if s.At.Before(t0) {
			t0 = s.At
		}
		if s.At.After(tN) {
			tN = s.At
		}
		sites[s.Site] = true
		if s.Trace != "" {
			title = s.Trace
		}
	}
	fmt.Printf("%s — %d spans, %d site(s), %s total\n",
		title, len(spans), len(sites), fmtDur(tN.Sub(t0)))

	// The optimistic window per shard: first opt-deliver to the
	// definitive to-deliver that settled it.
	optAt := map[int]time.Time{}
	for _, s := range spans {
		if s.Span == "opt-deliver" {
			if at, ok := optAt[s.Shard]; !ok || s.At.Before(at) {
				optAt[s.Shard] = s.At
			}
		}
	}
	const width = 24
	span := tN.Sub(t0)
	for _, s := range spans {
		off := s.At.Sub(t0)
		pos := 0
		if span > 0 {
			pos = int(off * (width - 1) / span)
		}
		bar := strings.Repeat("·", pos) + "█" + strings.Repeat(" ", width-1-pos)
		note := s.Note
		if s.Span == "to-deliver" {
			if at, ok := optAt[s.Shard]; ok && s.At.After(at) {
				gap := fmt.Sprintf("opt→def %s", fmtDur(s.At.Sub(at)))
				if note != "" {
					note += "  " + gap
				} else {
					note = gap
				}
			}
		}
		line := fmt.Sprintf("%10s  %s  site %d shard %d  %-12s %s",
			fmtDur(off), bar, s.Site, s.Shard, s.Span, s.Txn)
		if note != "" {
			line += "  (" + note + ")"
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
}

// fmtDur renders a duration in fixed sub-millisecond precision, the
// scale opt→def gaps live at.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
}

// printStatus renders a STATS reply one field per line; in sharded mode
// each shard's counters follow, indented under a "shard <id>:" header.
// Anything unexpected (an ERR, an older server) is printed verbatim.
func printStatus(lines []string) {
	if !strings.HasPrefix(lines[0], "STATS ") {
		fmt.Println(strings.Join(lines, "\n"))
		return
	}
	for i, line := range lines {
		fields, indent := strings.Fields(line), ""
		if len(fields) < 2 {
			fmt.Println(line)
			continue
		}
		fields = fields[1:]
		if i > 0 {
			// SHARD id=<g> ...: the id heads the shard's block.
			id, _ := strings.CutPrefix(fields[0], "id=")
			fmt.Printf("shard %s:\n", id)
			fields, indent = fields[1:], "  "
		}
		for _, f := range fields {
			k, v, _ := strings.Cut(f, "=")
			fmt.Printf("%s%-10s %s\n", indent, k+":", v)
		}
	}
}

// runStdin streams commands from stdin over one connection and prints
// each reply. Commands are sent as they are read (a goroutine keeps the
// pipe full while replies are consumed), and the write side is closed at
// EOF so the server hangs up once every reply is out.
func runStdin(addr string) error {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer func() { _ = conn.Close() }()
	sendErr := make(chan error, 1)
	sendDone := make(chan struct{})
	go func() {
		defer close(sendDone) // sendErr is always populated first
		in := bufio.NewScanner(os.Stdin)
		for in.Scan() {
			line := strings.TrimSpace(in.Text())
			if line == "" {
				continue
			}
			if _, err := fmt.Fprintln(conn, line); err != nil {
				sendErr <- err
				return
			}
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
		sendErr <- in.Err()
	}()
	replies := bufio.NewScanner(conn)
	for replies.Scan() {
		fmt.Println(replies.Text())
	}
	// Don't block on the sender: if the server hung up mid-session the
	// sender may still be parked reading stdin.
	select {
	case <-sendDone:
		if err := <-sendErr; err != nil {
			return err
		}
		return replies.Err()
	default:
		return fmt.Errorf("connection closed by server: %v", replies.Err())
	}
}
