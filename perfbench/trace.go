package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/lockstep"
)

// layers are the repro modules the traced run splits work into, in the
// order the per-layer table prints them. A span's layer is its name up
// to the first dot; spans of other names (setup, round, grid, check)
// are the benchmark's own and only parent the layer spans.
var layers = []string{"program", "sfg", "synth", "cpu", "power", "lockstep", "service", "resultstore"}

// span is one timed call into a module, recorded from the benchmark's
// side of the call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Req    string `json:"req"` // the workload unit (round, grid, request) the span belongs to
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and counts in memory until the run ends. A nil
// *tracer records nothing, so the untraced run shares the call sites.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]float64{}} }

// start opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) start(parent int, name, req string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(parent int, name, req string, f func()) {
	id := t.start(parent, name, req)
	f()
	t.end(id)
}

func (t *tracer) add(count string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[count] += v
	t.mu.Unlock()
}

// perLayer lists every per-layer metric a traced run prints, with its
// unit. A layer that does no work in a workload reports 0. A "<span>_s"
// metric not set as a count is the summed duration of the spans of that
// name; cpu.simulate_s also counts lockstep.kernel, whose pipelines are
// the cpu module's.
var perLayer = []struct{ name, unit string }{
	{"program.exec_s", "s"}, {"program.insts", "count"},
	{"sfg.profile_s", "s"}, {"sfg.nodes", "count"}, {"sfg.edges", "count"},
	{"synth.reduce_s", "s"}, {"synth.generate_s", "s"}, {"synth.generated_insts", "count"},
	{"cpu.simulate_s", "s"}, {"cpu.simulated_insts", "count"}, {"cpu.ns_per_sim_inst", "ns"}, {"cpu.eds_s", "s"},
	{"power.estimate_s", "s"},
	{"lockstep.plan_s", "s"}, {"lockstep.groups", "count"}, {"lockstep.group_fill", "ratio"},
	{"lockstep.generate_s", "s"}, {"lockstep.kernel_s", "s"},
	{"service.worker_idle_frac", "ratio"}, {"service.server_ms_p50", "ms"}, {"service.overhead_ms_p50", "ms"},
	{"service.cache_hit_rate", "ratio"}, {"service.cache_evictions", "count"}, {"service.store_loads", "count"},
	{"service.profile_miss_ms_p50", "ms"}, {"service.sweep_points_resumed", "count"},
	{"service.job_retries", "count"}, {"service.shed", "count"},
	{"resultstore.hit_rate", "ratio"}, {"resultstore.hit_ms_p50", "ms"}, {"resultstore.puts", "count"},
	{"trace.overhead_pct", "%"},
}

// artifact is the file the traced run leaves behind.
type artifact struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Spans    []span             `json:"spans"`
	Counts   map[string]float64 `json:"counts"`
}

// finish writes the artifact, reads it back, and sets the per-layer
// metrics from the file alone: the counts recorded during the run, span
// totals, and <layer>.self_s for every layer.
func (t *tracer) finish(r *run, path string) error {
	t.mu.Lock()
	a := artifact{Workload: r.name, Seed: r.seed, Spans: t.spans, Counts: t.counts}
	data, err := json.Marshal(a)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	for _, s := range a.Spans {
		if s.End < 0 {
			return fmt.Errorf("span %q (%d) never ended", s.Name, s.ID)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var back artifact
	if err := json.Unmarshal(raw, &back); err != nil {
		return err
	}
	spanTotal := map[string]float64{}
	for _, s := range back.Spans {
		spanTotal[s.Name] += float64(s.End-s.Start) / 1e9
	}
	for _, m := range perLayer {
		v, ok := back.Counts[m.name]
		if !ok && strings.HasSuffix(m.name, "_s") {
			v = spanTotal[strings.TrimSuffix(m.name, "_s")]
		}
		switch {
		case m.name == "cpu.simulate_s":
			// Pipelines run inside lockstep.Simulate too.
			v += spanTotal["lockstep.kernel"]
		case m.name == "cpu.ns_per_sim_inst" && back.Counts["cpu.simulated_insts"] > 0:
			v = r.metrics["cpu.simulate_s"].Value * 1e9 / back.Counts["cpu.simulated_insts"]
		case m.name == "lockstep.group_fill" && back.Counts["lockstep.groups"] > 0:
			v = back.Counts["lockstep.members"] / back.Counts["lockstep.groups"] / lockstep.DefaultMaxGroup
		}
		r.set(m.name, v, m.unit)
	}
	self := selfTimes(back.Spans)
	for _, l := range layers {
		r.set(l+".self_s", self[l], "s")
	}
	return nil
}

// selfTimes returns, per layer, the summed duration of the layer's
// spans minus the part of each span its child spans cover.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		ns := s.End - s.Start - covered(children[s.ID], s.Start, s.End)
		out[layer] += float64(ns) / 1e9
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curS, curE int64
	open := false
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}
