package experiments

import (
	"fmt"
	"testing"
	"time"

	"otpdb/internal/abcast"
)

// TestFigure1SmallRunHasPaperShape holds E1 to its shape on the engine,
// two origins over wan_jitter's link. At one delay almost nothing is
// spontaneously ordered: a site hears its own broadcast at once and the
// other origin's a delay later, so the two origins of any cross-origin
// pair sent less than δ apart each see their own message first — and at
// one send per δ every message has such a partner. At 16 δ most messages
// have none, and the definitive order inverts fewer tentative ones.
func TestFigure1SmallRunHasPaperShape(t *testing.T) {
	const delay = 500 * time.Microsecond
	p := Figure1Params{PerOrigin: 60, Delay: delay, Jitter: 200 * time.Microsecond}
	fast, err := figure1Cell(p, 2, delay, 3)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := figure1Cell(p, 2, 16*delay, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("1δ: gap %v, %.1f%% ordered, %.1f%% reordered; 16δ: gap %v, %.1f%% ordered, %.1f%% reordered",
		fast.gap, fast.ordered.Percent(), fast.reorderShare, slow.gap, slow.ordered.Percent(), slow.reorderShare)
	if n := fast.ordered.Messages; n != 120 || slow.ordered.Messages != 120 {
		t.Fatalf("messages delivered everywhere: %d at 1δ, %d at 16δ, want 120", n, slow.ordered.Messages)
	}
	if got := fast.ordered.Percent(); got > 5 {
		t.Errorf("1δ: %.1f%% spontaneously ordered, want at most 5%%", got)
	}
	if got := slow.ordered.Percent(); got < 50 {
		t.Errorf("16δ: %.1f%% spontaneously ordered, want at least 50%%", got)
	}
	if slow.reorderShare >= fast.reorderShare {
		t.Errorf("reorder share %.1f%% at 16δ, not below %.1f%% at 1δ", slow.reorderShare, fast.reorderShare)
	}
}

// TestSpontaneousOrderImprovesWithInterval: with four origins, sending
// once per delay leaves almost every message with a partner from another
// origin that some site sees the other way round; at 32 delays apart most
// messages have none.
func TestSpontaneousOrderImprovesWithInterval(t *testing.T) {
	const delay = 500 * time.Microsecond
	p := Figure1Params{PerOrigin: 30, Delay: delay, Jitter: 200 * time.Microsecond}
	fast, err := figure1Cell(p, 4, delay, 5)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := figure1Cell(p, 4, 32*delay, 6)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("1δ: %.1f%% ordered; 32δ: %.1f%% ordered", fast.ordered.Percent(), slow.ordered.Percent())
	if slow.ordered.Percent() < 40 {
		t.Errorf("32δ: %.1f%% spontaneously ordered, want at least 40%%", slow.ordered.Percent())
	}
	if fast.ordered.Percent() >= slow.ordered.Percent() {
		t.Errorf("no degradation at the higher rate: %.1f%% at 1δ, %.1f%% at 32δ",
			fast.ordered.Percent(), slow.ordered.Percent())
	}
}

// TestFigure1CurveMonotoneTrend runs E1's table for two origins over a
// widening interval: the spontaneously ordered column rises along it,
// within a couple of points of noise per step.
func TestFigure1CurveMonotoneTrend(t *testing.T) {
	const delay = 500 * time.Microsecond
	tab, err := Figure1(Figure1Params{
		Origins:   []int{2},
		PerOrigin: 40,
		Delay:     delay,
		Jitter:    200 * time.Microsecond,
		Intervals: []time.Duration{delay, 4 * delay, 16 * delay},
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(tab.Rows))
	}
	pct := make([]float64, len(tab.Rows))
	for i, row := range tab.Rows {
		if _, err := fmt.Sscanf(row[4], "%f%%", &pct[i]); err != nil {
			t.Fatalf("row %d: ordered column %q: %v", i, row[4], err)
		}
	}
	if !(pct[0] <= pct[1]+2 && pct[1] <= pct[2]+2) {
		t.Fatalf("curve not rising: %.1f %.1f %.1f", pct[0], pct[1], pct[2])
	}
}

func TestSpontaneousOrderPerfectAgreement(t *testing.T) {
	a := abcast.MsgID{Origin: 0, Seq: 0}
	b := abcast.MsgID{Origin: 1, Seq: 0}
	c := abcast.MsgID{Origin: 2, Seq: 0}
	logs := [][]abcast.MsgID{{a, b, c}, {a, b, c}, {a, b, c}}
	st := SpontaneousOrder(logs)
	if st.Messages != 3 || st.Ordered != 3 {
		t.Fatalf("stats = %+v, want 3/3", st)
	}
	if st.Percent() != 100 {
		t.Fatalf("percent = %v, want 100", st.Percent())
	}
}

func TestSpontaneousOrderDetectsSwap(t *testing.T) {
	a := abcast.MsgID{Origin: 0, Seq: 0}
	b := abcast.MsgID{Origin: 1, Seq: 0}
	c := abcast.MsgID{Origin: 2, Seq: 0}
	d := abcast.MsgID{Origin: 3, Seq: 0}
	logs := [][]abcast.MsgID{{a, b, c, d}, {a, c, b, d}}
	st := SpontaneousOrder(logs)
	if st.Messages != 4 {
		t.Fatalf("messages = %d, want 4", st.Messages)
	}
	// b and c disagree; a and d agree with everything.
	if st.Ordered != 2 {
		t.Fatalf("ordered = %d, want 2", st.Ordered)
	}
}

func TestSpontaneousOrderSamePositionStillUnordered(t *testing.T) {
	a := abcast.MsgID{Origin: 0, Seq: 0}
	b := abcast.MsgID{Origin: 1, Seq: 0}
	m := abcast.MsgID{Origin: 2, Seq: 0}
	// m holds position 1 at both sites yet its order w.r.t. a and b flips.
	logs := [][]abcast.MsgID{{a, m, b}, {b, m, a}}
	st := SpontaneousOrder(logs)
	if st.Ordered != 0 {
		t.Fatalf("ordered = %d, want 0 (pairwise metric)", st.Ordered)
	}
}

func TestSpontaneousOrderIgnoresPartialMessages(t *testing.T) {
	a := abcast.MsgID{Origin: 0, Seq: 0}
	b := abcast.MsgID{Origin: 1, Seq: 0}
	late := abcast.MsgID{Origin: 2, Seq: 0}
	logs := [][]abcast.MsgID{{a, b, late}, {a, b}}
	st := SpontaneousOrder(logs)
	if st.Messages != 2 || st.Ordered != 2 {
		t.Fatalf("stats = %+v, want 2/2", st)
	}
}
