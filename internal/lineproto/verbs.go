// Package lineproto is otpd's client protocol — the TCP incarnation of the
// in-process Session API. Everything about it is one table, Verbs: the
// server dispatches lines through it (Server.Serve), every usage error
// is generated from it, clients frame replies by it (Continuation), and
// the grammar printed in cmd/otpd's package comment, in README
// §Multi-process and in otpcli's usage text is Grammar() — TestVerbTable
// keeps those copies equal to it.
package lineproto

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"otpdb/internal/member"
	"otpdb/internal/transport"
)

// Framing says how many lines a reply has.
type Framing int

// Framings.
const (
	// OneLine replies are a single line.
	OneLine Framing = iota
	// CountLines replies announce n=<count> continuation lines on the
	// first line.
	CountLines
	// ShardLines replies announce shards=<S> continuation lines on the
	// first line when the replica is sharded, none otherwise.
	ShardLines
	// Stream replies are a header line, then lines pushed until the
	// client disconnects; the connection accepts no further commands.
	Stream
)

// Verb is one command of the protocol.
type Verb struct {
	// Name is the command word, upper case — two words for a
	// subcommand ("MEMBER ADD"). Matching ignores case.
	Name string
	// Aliases are other spellings of Name, upper case too.
	Aliases []string
	// Args is the argument grammar: <required> words, then optionally
	// [arg ...] for any number more. The arity check and the usage
	// error are derived from it.
	Args string
	// Reply is the shape of a successful reply; its first word is the
	// reply's tag. Any verb may answer "ERR <message>" instead.
	Reply string
	// NeedsReplica verbs wait (up to the reply wait) for every shard's
	// replica to be up; the others are answered at once in every phase
	// of the replica's life, also while a state transfer is still
	// catching it up.
	NeedsReplica bool
	// Framing says how many lines the reply has.
	Framing Framing

	run func(c *Conn, args []string) string
}

// Verbs is the protocol.
var Verbs = []Verb{
	{Name: "EXEC", Args: "<procedure> [arg ...]", NeedsReplica: true, run: runExec,
		Reply: "OK value=<int64> to=<idx> outcome=<fastpath|reordered|retried> latency=<dur> [shard=<home> xto=<g>:<idx>,... [trace=<id>]]"},
	{Name: "SUBMIT", Args: "<procedure> [arg ...]", NeedsReplica: true, run: runSubmit,
		Reply: "ID <handle>"},
	{Name: "WAIT", Args: "<handle>", run: runWait,
		Reply: "OK ... (as EXEC)"},
	{Name: "QUERY", Args: "<procedure> [arg ...]", NeedsReplica: true, run: runQuery,
		Reply: "VALUE <int64>"},
	{Name: "STATS", Aliases: []string{"STATUS"}, Framing: ShardLines, run: runStats,
		Reply: "STATS [shards=<S>] " + statsShape + ", then with shards= one SHARD id=<g> ... line per shard"},
	{Name: "DIGEST", NeedsReplica: true, run: runDigest,
		Reply: "DIGEST <hex> [<hex> ...] (one per shard)"},
	{Name: "SHARD LIST", run: runShardList,
		Reply: "SHARDS n=<S> version=<v>"},
	{Name: "SHARD MAP", Args: "<class>", run: runShardMap,
		Reply: "SHARD class=<class> id=<g>"},
	{Name: "MEMBER ADD", Args: "<id> <addr>", NeedsReplica: true,
		run: runMember(func(cur member.Config, id transport.NodeID, addr string) (member.Config, error) {
			return cur.WithAdd(member.Site{ID: id, Addr: addr})
		}),
		Reply: "OK epoch=<e> members=<n> to=<idx>"},
	{Name: "MEMBER REMOVE", Args: "<id>", NeedsReplica: true,
		run: runMember(func(cur member.Config, id transport.NodeID, _ string) (member.Config, error) {
			return cur.WithRemove(id)
		}),
		Reply: "OK ... (as MEMBER ADD)"},
	{Name: "MEMBER REPLACE", Args: "<id> <addr>", NeedsReplica: true, run: runMember(member.Config.WithReplace),
		Reply: "OK ... (as MEMBER ADD)"},
	{Name: "METRICS", Framing: CountLines, run: runMetrics,
		Reply: "METRICS n=<count>, then one series per line"},
	{Name: "TRACE", Args: "<id>", Framing: CountLines, run: runTrace,
		Reply: "TRACE n=<count>, then one JSON span per line"},
	{Name: "WATCH", Framing: Stream, run: runWatch,
		Reply: "WATCH streaming, then one EVENT {json} line per flight-recorder event (push; ends at disconnect)"},
}

// arity derives the argument count bounds from Args.
func (v *Verb) arity() (min int, variadic bool) {
	for _, f := range strings.Fields(v.Args) {
		if strings.HasPrefix(f, "[") {
			return min, true
		}
		min++
	}
	return min, false
}

// usage is the error a call with the wrong number of arguments gets.
func (v *Verb) usage() string {
	if v.Args == "" {
		return "ERR " + v.Name + " takes no arguments"
	}
	return "ERR " + v.Name + " needs " + v.Args
}

// Tag is the first word of the verb's successful reply.
func (v *Verb) Tag() string {
	tag, _, _ := strings.Cut(v.Reply, " ")
	return tag
}

// Lookup resolves the verb a command line (split into fields) names and
// returns it with the line's arguments. When there is none, or the
// argument count does not fit, errReply is the "ERR ..." line to answer.
func Lookup(fields []string) (v *Verb, args []string, errReply string) {
	if len(fields) == 0 {
		return nil, nil, "ERR empty command"
	}
	word := strings.ToUpper(fields[0])
	var family []string // subcommand usages, when word names a family
	for i := range Verbs {
		v := &Verbs[i]
		name, sub, _ := strings.Cut(v.Name, " ")
		if name != word && !slices.Contains(v.Aliases, word) {
			continue
		}
		args := fields[1:]
		if sub != "" {
			family = append(family, strings.TrimSpace(sub+" "+v.Args))
			if len(args) == 0 || strings.ToUpper(args[0]) != sub {
				continue
			}
			args = args[1:]
		}
		if min, variadic := v.arity(); len(args) < min || len(args) > min && !variadic {
			return nil, nil, v.usage()
		}
		return v, args, ""
	}
	switch {
	case family == nil:
		return nil, nil, "ERR unknown command " + fields[0]
	case len(fields) == 1:
		return nil, nil, "ERR " + word + " needs " + strings.Join(family, " | ")
	}
	return nil, nil, "ERR unknown " + word + " subcommand " + fields[1]
}

// Continuation reports how many lines follow the first line of a reply
// to v, reading the count v's framing announces there (0 for an ERR, or
// an unsharded STATS). A Stream reply has no count: lines follow until
// the connection closes.
func Continuation(v *Verb, first string) int {
	var key string
	switch v.Framing {
	case CountLines:
		key = "n="
	case ShardLines:
		key = "shards="
	default:
		return 0
	}
	for _, f := range strings.Fields(first) {
		if val, ok := strings.CutPrefix(f, key); ok {
			if n, err := strconv.Atoi(val); err == nil && n > 0 {
				return n
			}
		}
	}
	return 0
}

// Grammar renders the protocol, one verb per line.
func Grammar() string {
	left := make([]string, len(Verbs))
	width := 0
	for i, v := range Verbs {
		left[i] = strings.TrimSpace(v.Name + " " + v.Args)
		if len(v.Aliases) > 0 {
			left[i] += " (alias " + strings.Join(v.Aliases, ", ") + ")"
		}
		width = max(width, len(left[i]))
	}
	var b strings.Builder
	for i, v := range Verbs {
		fmt.Fprintf(&b, "%-*s -> %s\n", width, left[i], v.Reply)
	}
	fmt.Fprintf(&b, "%-*s -> ERR <message>\n", width, "(any of them, instead)")
	b.WriteString("[arg ...]: a decimal integer is an int64 value, anything else a string; the first argument is always a string (the key), even when it is all digits")
	return b.String()
}
