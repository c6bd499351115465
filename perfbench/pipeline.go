package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/program"
	"repro/internal/sfg"
	"repro/internal/trace"
)

// The paper's methodology at the benchmark's scale: k=1 with
// delayed update, a 1M-instruction profile reduced to a ~100k synthetic
// trace, on the Table 2 configuration. Stream and trace seeds are fixed;
// --seed only orders the personalities, so ipc_err_pct repeats exactly.
const (
	pipeN      = 1_000_000
	pipeTarget = 100_000
	streamSeed = 1
	simSeed    = 1

	// Golden scale, as golden_test.go at the repository root pins it.
	goldenN      = 25_000
	goldenTarget = 5_000
	goldenTol    = 1e-9
)

// tracedRounds is the fixed work of the traced pipeline run, after one
// untraced round that gives the reference metrics and timing.
const tracedRounds = 2

// pass is the benchmark's code path for one personality: profile, then
// reduce, generate and simulate. simS is the time of the last three.
func pass(w core.Workload, cfg cpu.Config, n, target uint64) (m core.Metrics, simS float64, err error) {
	g, err := core.Profile(cfg, w.Stream(streamSeed, 0, n), core.ProfileOptions{K: 1})
	if err != nil {
		return m, 0, err
	}
	t0 := time.Now()
	m, err = core.StatSim(cfg, g, core.ReductionFor(g, target), simSeed)
	return m, time.Since(t0).Seconds(), err
}

// bufs are the reused materialisation buffers of the traced path.
type bufs struct{ stream, synth []trace.DynInst }

// passTraced does the work of pass split into its modules, one span per
// call: drain the program's stream, profile it, reduce, generate the
// synthetic trace, simulate it and estimate power.
func passTraced(tr *tracer, parent int, req string, w core.Workload, cfg cpu.Config, b *bufs) (core.Metrics, error) {
	tr.do(parent, "program.exec", req, func() { b.stream = drain(w.Stream(streamSeed, 0, pipeN), b.stream[:0]) })
	tr.add("program.insts", float64(len(b.stream)))
	g, err := profileTraced(tr, parent, req, cfg, b.stream, core.ProfileOptions{K: 1})
	if err != nil {
		return core.Metrics{}, err
	}
	var m core.Metrics
	m, b.synth, err = statSimTraced(tr, parent, req, cfg, g, core.ReductionFor(g, pipeTarget), simSeed, b.synth)
	return m, err
}

// profileTraced profiles an already-materialised stream.
func profileTraced(tr *tracer, parent int, req string, cfg cpu.Config, stream []trace.DynInst, opts core.ProfileOptions) (*sfg.Graph, error) {
	var g *sfg.Graph
	var err error
	tr.do(parent, "sfg.profile", req, func() { g, err = core.Profile(cfg, trace.NewSliceSource(stream), opts) })
	if err == nil {
		tr.add("sfg.nodes", float64(g.NumNodes()))
		tr.add("sfg.edges", float64(g.NumEdges()))
	}
	return g, err
}

// drain appends src's whole stream to dst through the batch interface.
func drain(src trace.Source, dst []trace.DynInst) []trace.DynInst {
	b := trace.Batched(src)
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, trace.DynInst{})[:len(dst)]
		}
		n := b.NextBatch(dst[len(dst):cap(dst)])
		if n == 0 {
			return dst
		}
		dst = dst[:len(dst)+n]
	}
}

// loadTraced generates a personality's program inside a span.
func loadTraced(tr *tracer, parent int, name string) (core.Workload, error) {
	var w core.Workload
	var err error
	tr.do(parent, "program.load", "setup", func() { w, err = core.LoadWorkload(name) })
	return w, err
}

func same(a, b core.Metrics) bool {
	ja, err1 := json.Marshal(a)
	jb, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(ja, jb)
}

func runPipeline(r *run) error {
	cfg := cpu.DefaultConfig()
	names := make([]string, 0, 10)
	for _, p := range program.Benchmarks() {
		names = append(names, p.Name)
	}
	rng := &splitmix{s: r.seed}
	rng.shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })

	// Setup: generate the ten programs and run each one's EDS reference.
	var ws []core.Workload
	var eds []core.Metrics
	setup := func() error {
		ws, eds = ws[:0], eds[:0]
		root := r.tr.start(0, "setup", "setup")
		defer r.tr.end(root)
		for _, name := range names {
			w, err := loadTraced(r.tr, root, name)
			if err != nil {
				return err
			}
			var m core.Metrics
			r.tr.do(root, "cpu.eds", "setup", func() { m = core.Reference(cfg, w.Stream(streamSeed, 0, pipeN)) })
			ws, eds = append(ws, w), append(eds, m)
			r.step()
		}
		return nil
	}
	if r.tr != nil {
		if err := pipelineTraced(r, cfg, setup, &ws); err != nil {
			return err
		}
		return checkGolden(r, cfg, ws)
	}
	// Two set-ups of ~4.5 s each: long enough to be steady, and the
	// run's time is better spent on the measured phase.
	if err := r.timeSetup(2, setup); err != nil {
		return err
	}

	// Measured phase: whole rounds of the ten personalities while they
	// fit in the time, so every round weighs the personalities alike.
	// The host's speed is sampled between passes.
	first := make([]core.Metrics, len(ws))
	var passes, sims []unit
	var roundNorm, roundRaw []float64
	start := time.Now()
	var last time.Duration
	for round := 0; round == 0 || r.fits(start, last); round++ {
		t0 := time.Now()
		from := len(passes)
		for i, w := range ws {
			u := unit{t0: time.Now()}
			m, simS, err := pass(w, cfg, pipeN, pipeTarget)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			end := time.Now()
			u.t1 = r.cal.sample()
			passes = append(passes, u)
			sims = append(sims, unit{t0: end.Add(-time.Duration(simS * 1e9)), t1: end})
			if round == 0 {
				first[i] = m
			} else {
				r.chk.check(same(m, first[i]), "%s round %d differs from round 0", w.Name, round)
			}
		}
		var norm, raw float64
		for _, u := range passes[from:] {
			norm, raw = norm+r.cal.normS(u), raw+u.rawS()
		}
		roundNorm, roundRaw = append(roundNorm, norm), append(roundRaw, raw)
		last = time.Since(t0)
	}
	r.markMeasured()
	rate, rawRate := float64(len(passes))/sum(roundNorm), float64(len(passes))/sum(roundRaw)
	r.setNorm("profiled_minst_per_s", rate*pipeN/1e6, rawRate*pipeN/1e6, "Minst/s")
	r.setNorm("points_per_s", rate, rawRate, "points/s")
	r.setNorm("req_per_s", rate, rawRate, "req/s")
	simNorm, simRaw := r.cal.normAll(sims)
	r.setNorm("simulate_p50_ms", quantile(simNorm, 0.5)*1e3, quantile(simRaw, 0.5)*1e3, "ms")
	r.setNorm("simulate_p95_ms", quantile(simNorm, 0.95)*1e3, quantile(simRaw, 0.95)*1e3, "ms")
	r.noteSamples("simulate_p50_ms", len(sims), 0.5)
	r.noteSamples("simulate_p95_ms", len(sims), 0.95)
	r.setNorm("sweep_p50_ms", median(roundNorm)*1e3, median(roundRaw)*1e3, "ms")
	r.noteSamples("sweep_p50_ms", len(roundNorm), 0.5)
	r.set("ipc_err_pct", ipcErrPct(first, eds), "%")
	return checkGolden(r, cfg, ws)
}

// pipelineTraced sets up once, runs one untraced round as the reference
// and tracedRounds split rounds, which must match it byte for byte.
func pipelineTraced(r *run, cfg cpu.Config, setup func() error, ws *[]core.Workload) error {
	if err := setup(); err != nil {
		return err
	}
	t0 := time.Now()
	ref := make([]core.Metrics, len(*ws))
	for i, w := range *ws {
		m, _, err := pass(w, cfg, pipeN, pipeTarget)
		if err != nil {
			return err
		}
		ref[i] = m
	}
	plainS := time.Since(t0).Seconds()
	var b bufs
	var tracedS []float64
	for round := 0; round < tracedRounds; round++ {
		req := fmt.Sprintf("round-%d", round)
		t0 := time.Now()
		root := r.tr.start(0, "round", req)
		for i, w := range *ws {
			m, err := passTraced(r.tr, root, req+"/"+w.Name, w, cfg, &b)
			if err != nil {
				return err
			}
			r.chk.check(same(m, ref[i]), "%s: traced path differs from core.StatSim", w.Name)
		}
		r.tr.end(root)
		tracedS = append(tracedS, time.Since(t0).Seconds())
	}
	r.tr.add("trace.overhead_pct", (median(tracedS)/plainS-1)*100)
	return nil
}

// ipcErrPct is the mean |IPC_SS - IPC_EDS| / IPC_EDS in percent.
func ipcErrPct(ss, eds []core.Metrics) float64 {
	t := 0.0
	for i := range ss {
		t += math.Abs(ss[i].IPC()-eds[i].IPC()) / eds[i].IPC()
	}
	return t / float64(len(ss)) * 100
}

// checkGolden runs the benchmark's own code path at golden scale and
// compares it with testdata/golden (k=1 entries).
func checkGolden(r *run, cfg cpu.Config, ws []core.Workload) error {
	for _, w := range ws {
		raw, err := os.ReadFile(filepath.Join("testdata", "golden", w.Name+".json"))
		if err != nil {
			return fmt.Errorf("golden corpus: %w", err)
		}
		var want map[string]map[string]float64
		if err := json.Unmarshal(raw, &want); err != nil {
			return fmt.Errorf("golden corpus %s: %w", w.Name, err)
		}
		m, _, err := pass(w, cfg, goldenN, goldenTarget)
		if err != nil {
			return err
		}
		got := map[string]float64{
			"ipc":                m.IPC(),
			"mispredict_rate":    m.Branch.MispredictRate(),
			"mispredicts_per_ki": m.Branch.MispredictsPerKI(m.Instructions),
			"l1d_miss_rate":      m.Cache.L1DMissRate(),
			"l2d_miss_rate":      m.Cache.L2DMissRate(),
			"l1i_miss_rate":      m.Cache.L1IMissRate(),
			"l2i_miss_rate":      m.Cache.L2IMissRate(),
		}
		ok := len(want["k1"]) == len(got)
		for k, v := range want["k1"] {
			ok = ok && math.Abs(got[k]-v) <= goldenTol
		}
		r.chk.check(ok, "%s: golden k1 mismatch: got %v want %v", w.Name, got, want["k1"])
	}
	return nil
}
