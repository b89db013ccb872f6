package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The analyzer tests run each analyzer over a corpus package under
// testdata/ — its own module (lint.test/corpus), so the corpus never
// leaks into the real build — and match the diagnostics against
// `// want `regex`` comments in the corpus sources, in the spirit of
// golang.org/x/tools/go/analysis/analysistest.

func TestChaosDet(t *testing.T)    { testCorpus(t, ChaosDet, "chaosdet") }
func TestEpochFence(t *testing.T)  { testCorpus(t, EpochFence, "epochfence") }
func TestAtomicCOW(t *testing.T)   { testCorpus(t, AtomicCOW, "atomiccow") }
func TestMetricNames(t *testing.T) { testCorpus(t, MetricNames, "metricnames") }
func TestTestPoll(t *testing.T)    { testCorpus(t, TestPoll, "testpoll") }

// TestAllowContract asserts the suppression mechanics directly: a
// justified allow removes the finding, a bare allow removes nothing
// and is itself reported, and an allow naming the wrong analyzer is
// inert. Direct assertions, because the malformed-allow diagnostic
// lands on the allow comment's own line, where no want comment fits.
func TestAllowContract(t *testing.T) {
	diags := runCorpus(t, AtomicCOW, "allow")
	var got []string
	for _, d := range diags {
		got = append(got, d.String())
	}
	wants := []*regexp.Regexp{
		// unjustified: the finding survives and the bare allow is reported.
		regexp.MustCompile(`allow\.go:26:\d+: atomiccow: otplint:allow requires a justification`),
		regexp.MustCompile(`allow\.go:27:\d+: atomiccow: field box\.n is accessed with sync/atomic`),
		// wrongAnalyzer: the testpoll allow does not cover an atomiccow finding.
		regexp.MustCompile(`allow\.go:34:\d+: atomiccow: field box\.n is accessed with sync/atomic`),
	}
	if len(diags) != len(wants) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), len(wants), strings.Join(got, "\n"))
	}
	for i, re := range wants {
		if !re.MatchString(got[i]) {
			t.Errorf("diag[%d] = %s\nwant match for %s", i, got[i], re)
		}
	}
}

func runCorpus(t *testing.T, a *Analyzer, dir string) []Diagnostic {
	t.Helper()
	root, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./"+dir)
	if err != nil {
		t.Fatalf("loading corpus %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("corpus %s loaded no packages", dir)
	}
	diags, err := Run(pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on corpus %s: %v", a.Name, dir, err)
	}
	return diags
}

// want is one expectation parsed from a corpus source line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile("// want ((?:`[^`]*`\\s*)+)")
var wantArgRe = regexp.MustCompile("`([^`]*)`")

func testCorpus(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	diags := runCorpus(t, a, dir)
	wants := parseWants(t, filepath.Join("testdata", dir))

	for _, d := range diags {
		matched := false
		for i := range wants {
			w := &wants[i]
			if w.file == filepath.Base(d.Pos.Filename) && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %s, got none", w.file, w.line, w.re)
		}
	}
}

// parseWants scans every corpus .go file for trailing "// want" comments,
// each followed by one or more backquoted regexes.
func parseWants(t *testing.T, dir string) []want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			for _, arg := range wantArgRe.FindAllStringSubmatch(m[1], -1) {
				re, err := regexp.Compile(arg[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp: %v", e.Name(), line, err)
				}
				wants = append(wants, want{file: e.Name(), line: line, re: re})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	if len(wants) == 0 {
		t.Fatalf("corpus %s declares no wants", dir)
	}
	return wants
}
