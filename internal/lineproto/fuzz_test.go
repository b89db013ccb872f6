package lineproto

import (
	"strings"
	"testing"
	"time"
)

// FuzzVerbLine feeds arbitrary bytes to a live two-shard server as one
// command line: no panic, and exactly one reply — a first line whose tag
// the table declares for the verb (or ERR), followed by exactly the
// continuation lines that first line announces. The checked-in corpus
// (testdata/fuzz/FuzzVerbLine) has every verb well- and ill-formed.
func FuzzVerbLine(f *testing.F) {
	for _, line := range []string{"", "EXEC add-p0 k 5", "SUBMIT xfer k 1", "WAIT 0.0.1", "QUERY get p1 k",
		"STATUS", "SHARD MAP p1", "MEMBER REPLACE 0 127.0.0.1:9", "METRICS", "TRACE tx0.1.1", "WATCH", "EXEC\x00 add-p0"} {
		f.Add(line)
	}
	shared := testServer(f, 2, true)
	shared.wait = 50 * time.Millisecond
	f.Fuzz(func(t *testing.T, line string) {
		line, _, _ = strings.Cut(line, "\n") // Serve hands handle one line at a time
		srv := shared
		v, _, _ := Lookup(strings.Fields(line))
		if v != nil && strings.HasPrefix(v.Name, "MEMBER") {
			// A committed membership change would leave the shared
			// single-member groups waiting for a member that never comes.
			srv = testServer(t, 2, true)
			srv.wait = shared.wait
		}
		reply := srv.conn().handle(line)
		first, _, _ := strings.Cut(reply, "\n")
		tag, _, _ := strings.Cut(first, " ")
		switch {
		case tag == "ERR":
		case v == nil:
			t.Fatalf("%q names no verb but was answered %q", line, reply)
		case tag != v.Tag():
			t.Fatalf("%q: reply tag %q, the table says %s or ERR", line, tag, v.Tag())
		}
		if v != nil {
			if n := Continuation(v, first); n != strings.Count(reply, "\n") {
				t.Fatalf("%q: first line %q announces %d more lines, the reply is %q", line, first, n, reply)
			}
		} else if strings.Contains(reply, "\n") {
			t.Fatalf("%q: multi-line error %q", line, reply)
		}
	})
}
