package sfg

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/program"
	"repro/internal/sfg/sfgtest"
	"repro/internal/stats"
	"repro/internal/trace"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	prog := program.MustGenerate(program.Personality{Name: "t", Seed: 3, TargetBlocks: 80})
	src := &trace.LimitSource{Src: program.NewExecutor(prog, 1), N: 60_000}
	g, err := Profile(src, defaultOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.K != g.K || g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("shape changed: %d/%d nodes, %d/%d edges",
			g.NumNodes(), g2.NumNodes(), g.NumEdges(), g2.NumEdges())
	}
	if g2.TotalInstructions != g.TotalInstructions || g2.TotalBlocks != g.TotalBlocks {
		t.Error("totals changed")
	}
	for i := range g.Edges {
		a, b := g.Edges[i], g2.Edges[i]
		if a.Count != b.Count || a.BrMispredict != b.BrMispredict ||
			a.L1DMiss != b.L1DMiss || len(a.Insts) != len(b.Insts) {
			t.Fatalf("edge %d differs", i)
		}
		for j := range a.Insts {
			ia, ib := &a.Insts[j], &b.Insts[j]
			if ia.Class != ib.Class || ia.NumSrcs != ib.NumSrcs || ia.L1DMiss != ib.L1DMiss {
				t.Fatalf("edge %d inst %d differs", i, j)
			}
			for op := range ia.Dep {
				ha, hb := ia.Dep[op], ib.Dep[op]
				if (ha == nil) != (hb == nil) {
					t.Fatalf("edge %d inst %d op %d: histogram presence differs", i, j, op)
				}
				if ha != nil && (ha.Total() != hb.Total() || ha.Mean() != hb.Mean()) {
					t.Fatalf("edge %d inst %d op %d: histogram content differs", i, j, op)
				}
			}
		}
	}
	// Mispredict summary must survive the round trip.
	if g.MispredictsPerKI() != g2.MispredictsPerKI() {
		t.Error("mispredict rate changed")
	}
}

// TestSaveHistogramBound pins the writer to the reader's bound: a
// profile with histograms at stats.MaxBound saves and loads, a larger
// dependency bound is refused when profiling, and Save refuses a
// histogram that Load would reject.
func TestSaveHistogramBound(t *testing.T) {
	prog := program.MustGenerate(program.Personality{Name: "t", Seed: 3, TargetBlocks: 40})
	profile := func(depMax int) (*Graph, error) {
		opts := defaultOpts(1)
		opts.DepMax = depMax
		return Profile(&trace.LimitSource{Src: program.NewExecutor(prog, 1), N: 20_000}, opts)
	}
	if _, err := profile(stats.MaxBound + 1); err == nil {
		t.Errorf("DepMax %d accepted", stats.MaxBound+1)
	}
	g, err := profile(stats.MaxBound)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatalf("save at the bound: %v", err)
	}
	g2, err := Load(&buf)
	if err != nil {
		t.Fatalf("load at the bound: %v", err)
	}
	var h *stats.Histogram
	for _, e := range g2.Edges {
		for i := range e.Insts {
			if e.Insts[i].WAW != nil {
				h = e.Insts[i].WAW
			}
		}
	}
	if h == nil || h.Max != stats.MaxBound {
		t.Fatalf("no histogram at bound %d survived the round trip", stats.MaxBound)
	}
	over := stats.NewHistogram(stats.MaxBound + 1)
	over.Add(1)
	for _, e := range g.Edges {
		for i := range e.Insts {
			if e.Insts[i].WAW != nil {
				e.Insts[i].WAW = over
			}
		}
	}
	if err := g.Save(io.Discard); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("save of a histogram bound %d: err %v, want a refusal", over.Max, err)
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a profile"))); err == nil {
		t.Error("garbage accepted")
	}
}

// countHistograms returns the number of dependency histograms Save
// writes for g.
func countHistograms(g *Graph) int {
	n := 0
	for _, e := range g.Edges {
		for i := range e.Insts {
			for _, h := range e.Insts[i].Dep {
				if h != nil {
					n++
				}
			}
			if e.Insts[i].WAW != nil {
				n++
			}
		}
	}
	return n
}

// TestLoadAllocsPerHistogram is the deterministic guard on the cost of
// reusing a stored profile. Dependency histograms dominate a profile, so
// Load's allocations are bounded per histogram. The one-pass sparse
// codec measures ~8 allocations per histogram here (the histogram, its
// dense buckets, gob's byte slice, and a share of the instruction
// records); the bound leaves 50% headroom. A nested gob stream per
// histogram costs over 150.
func TestLoadAllocsPerHistogram(t *testing.T) {
	prog := program.MustGenerate(program.Personality{Name: "t", Seed: 3, TargetBlocks: 80})
	src := &trace.LimitSource{Src: program.NewExecutor(prog, 1), N: 60_000}
	g, err := Profile(src, defaultOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	hists := countHistograms(g)
	if hists < 500 {
		t.Fatalf("profile holds only %d histograms; too few to amortise the decoder setup", hists)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	per := allocs / float64(hists)
	t.Logf("%d histograms, %.0f allocs per Load, %.2f per histogram", hists, allocs, per)
	const bound = 12
	if per > bound {
		t.Fatalf("Load allocates %.2f times per histogram, bound %d", per, bound)
	}
}

// TestLoadRejectsMalformed: every malformed payload is an error, never
// a panic. Payloads come from disk and from cluster peers. The histogram
// codec's own cases are in stats; these check that Load surfaces them.
func TestLoadRejectsMalformed(t *testing.T) {
	valid := sfgtest.Hist(512, 1, 3, 1)
	if _, err := Load(bytes.NewReader(sfgtest.Minimal(valid).Bytes())); err != nil {
		t.Fatalf("the well-formed control payload is refused: %v", err)
	}
	with := func(f func(g *sfgtest.Graph)) []byte {
		g := sfgtest.Minimal(valid)
		f(&g)
		return g.Bytes()
	}
	cases := []struct {
		name    string
		payload []byte
		want    string
	}{
		{"histogram value zero", sfgtest.Minimal(sfgtest.Hist(512, 1, 0, 1)).Bytes(), "not ascending"},
		{"histogram pairs cut short", sfgtest.Minimal(sfgtest.Hist(512, 2, 4, 1)).Bytes(), "truncated"},
		{"histogram max above cap", sfgtest.Minimal(sfgtest.Hist(1<<40, 1, 1, 1)).Bytes(), "outside"},
		{"histogram missing", sfgtest.Minimal(nil).Bytes(), "truncated"},
		{"operand out of range", with(func(g *sfgtest.Graph) { g.Edges[0].Insts[0].Dep[0].Op = 9 }), "corrupt dependency"},
		{"negative operand", with(func(g *sfgtest.Graph) { g.Edges[0].Insts[0].Dep[0].Op = -1 }), "corrupt dependency"},
		{"order above MaxK", with(func(g *sfgtest.Graph) { g.K = MaxK + 1 }), "order"},
		{"negative order", with(func(g *sfgtest.Graph) { g.K = -1 }), "order"},
		{"negative edge source", with(func(g *sfgtest.Graph) { g.Edges[0].From = -1 }), "out of range"},
		{"negative edge target", with(func(g *sfgtest.Graph) { g.Edges[0].To = -3 }), "out of range"},
		{"class out of range", with(func(g *sfgtest.Graph) { g.Edges[0].Insts[0].Class = 200 }), "class"},
		{"too many sources", with(func(g *sfgtest.Graph) { g.Edges[0].Insts[0].NumSrcs = 9 }), "sources"},
		{"occurrences disagree", with(func(g *sfgtest.Graph) { g.TotalBlocks = 5 }), "invalid"},
		{"version 3", with(func(g *sfgtest.Graph) { g.Version = 3 }), "unsupported profile version 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := Load(bytes.NewReader(tc.payload))
			if err == nil {
				t.Fatalf("accepted: %d nodes, %d edges", g.NumNodes(), g.NumEdges())
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestLoadRefusesVersion1: a version 1 payload reaches the version check
// and is refused by it — never a codec error, and never the panics
// version 1 decoding hit on malformed histograms.
func TestLoadRefusesVersion1(t *testing.T) {
	for _, h := range []sfgtest.V1Hist{
		{Max: 512, Values: []int32{3}, Counts: []uint64{1}},
		{Max: 512, Values: []int32{0}, Counts: []uint64{1}},
		{Max: 512, Values: []int32{1, 2}, Counts: []uint64{1}},
		{Max: -4, Values: []int32{1}, Counts: []uint64{1}},
	} {
		_, err := Load(bytes.NewReader(sfgtest.V1Payload(h)))
		if err == nil || err.Error() != "sfg: unsupported profile version 1" {
			t.Errorf("%+v: error %v, want the version refusal", h, err)
		}
	}
}
