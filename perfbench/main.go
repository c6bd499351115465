// Command perfbench is the repository benchmark. It drives one of three
// workloads (pipeline, sweep, serve) through the repro module's public
// functions, checks every answer it gets, and prints each end-to-end
// metric by name with its unit. With -trace 1 it runs the same work
// split into the modules it calls, writes the spans to a file and
// prints the per-layer metrics instead. NOTES.md explains the
// workloads, metrics and predictions.
//
// Run it through run.sh, which builds it inside the checkout:
//
//	bash perfbench/run.sh --workload pipeline --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// outDir holds everything a run writes: the traced-run artifact and the
// serve workload's daemon cache directories. run.sh builds into the
// same ignored directory.
const outDir = ".bench_build/perfbench"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one workload run fills in.
type run struct {
	name    string
	seed    uint64
	seconds float64
	tr      *tracer // nil in the untraced run
	chk     checker
	// cal normalises one-thread work (set-up steps, the pipeline, single
	// re-simulations); calN normalises work that keeps every core busy
	// (sweep calls, serve slices).
	cal, calN calibrator
	// rssMiB is the peak resident set size when the measured phase
	// ended, before the checks ran.
	rssMiB float64
	// steps are the timed steps of the current set-up.
	steps []unit
	// setupPar is the number of cores a set-up step is normalised for
	// (blendS); 1, the one-thread kernel alone, unless a workload sets it.
	setupPar float64
	stepT0   time.Time
	metrics  map[string]metric
	raw      map[string]float64
	// notes holds, per percentile metric, the samples it rests on.
	notes map[string]string
	// order lists metric names in the order they were set, for the
	// human-readable table.
	order []string
}

func (r *run) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// setNorm sets a metric in reference-host units and keeps the raw host
// value for the table.
func (r *run) setNorm(name string, norm, raw float64, unit string) {
	r.set(name, norm, unit)
	r.raw[name] = raw
}

// workload runs setup, the measured phase and the checks. It returns an
// error only when it could not run at all; wrong answers go to r.chk.
type workload func(r *run) error

var workloads = map[string]workload{
	"pipeline": runPipeline,
	"sweep":    runSweep,
	"serve":    runServe,
}

func main() {
	name := flag.String("workload", "", "pipeline, sweep or serve")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "length of the measured phase")
	traced := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload pipeline|sweep|serve, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	r := &run{name: *name, seed: *seed, seconds: *seconds, setupPar: 1, metrics: map[string]metric{}, raw: map[string]float64{}, notes: map[string]string{}}
	r.cal.par, r.calN.par = 1, runtime.NumCPU()
	if *traced == 1 {
		r.tr = newTracer()
	}
	// Sample both speeds before any of the program runs, so every unit
	// has a clean sample before it.
	r.cal.sample()
	r.calN.sample()
	if err := wl(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if r.tr != nil {
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
		if err := r.tr.finish(r, path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: trace artifact: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace artifact: %s (%d spans)\n", path, len(r.tr.spans))
	} else {
		r.set("peak_rss_mb", r.rssMiB, "MiB")
		r.set("ok_frac", r.chk.okFrac(), "ratio")
	}
	r.report()
}

// report prints the human-readable table, then the result as the last
// line of standard output.
func (r *run) report() {
	mode := "end-to-end"
	if r.tr != nil {
		mode = "per-layer"
	}
	fmt.Printf("workload=%s seed=%d seconds=%g gomaxprocs=%d  %s metrics:\n",
		r.name, r.seed, r.seconds, runtime.GOMAXPROCS(0), mode)
	fmt.Printf("  host slowness median %.4f over %d one-thread samples, %.4f over %d all-core samples\n"+
		"  (%d kernel runs dropped: the process was busy);\n"+
		"  end-to-end times and rates are in reference-host units, raw host values in brackets\n",
		median(r.cal.slow), len(r.cal.slow), median(r.calN.slow), len(r.calN.slow), r.cal.dropped+r.calN.dropped)
	w := bufio.NewWriter(os.Stdout)
	for _, k := range r.order {
		m := r.metrics[k]
		if raw, ok := r.raw[k]; ok {
			fmt.Fprintf(w, "  %-28s %14.6g %-8s [%.6g] %s\n", k, m.Value, m.Unit, raw, r.notes[k])
		} else {
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", k, m.Value, m.Unit)
		}
	}
	w.Flush()
	r.chk.print()
	res := result{
		Correct:   len(r.chk.unexplained) == 0,
		Attempted: r.chk.attempted,
		Failed:    r.chk.failed,
		Metrics:   r.metrics,
	}
	if res.Attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no answer was checked")
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// checker counts checked answers. A failure is either one of the
// documented seed defects (NOTES.md, "Known defects") or unexplained;
// both count in failed, and any unexplained one makes the run incorrect.
type checker struct {
	attempted   int
	failed      int
	known       map[string]int
	unexplained []string
}

func (c *checker) check(ok bool, format string, args ...any) bool {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.unexplained) < 20 {
			c.unexplained = append(c.unexplained, fmt.Sprintf(format, args...))
		} else {
			c.unexplained[19] = "... more"
		}
	}
	return ok
}

// knownDefect counts an answer that failed in the documented way.
func (c *checker) knownDefect(defect string) {
	c.attempted++
	c.failed++
	if c.known == nil {
		c.known = map[string]int{}
	}
	c.known[defect]++
}

func (c *checker) okFrac() float64 {
	if c.attempted == 0 {
		return 0
	}
	return 1 - float64(c.failed)/float64(c.attempted)
}

func (c *checker) print() {
	frac := 0.0
	if c.attempted > 0 {
		frac = float64(c.failed) / float64(c.attempted)
	}
	fmt.Printf("  %-28s %14.6g ratio  (%d failed of %d checked)\n", "failed_frac", frac, c.failed, c.attempted)
	keys := make([]string, 0, len(c.known))
	for k := range c.known {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  known defect %-22s %d answers\n", k, c.known[k])
	}
	for _, u := range c.unexplained {
		fmt.Printf("  WRONG: %s\n", u)
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// noteSamples records, for the table, how many samples a q-quantile
// metric rests on and how many of them lie above it.
func (r *run) noteSamples(name string, n int, q float64) {
	beyond := 0
	if n > 0 {
		beyond = n - 1 - int(math.Floor(q*float64(n-1)))
	}
	r.notes[name] = fmt.Sprintf("(%d samples, %d beyond)", n, beyond)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// timeSetup runs setup reps times and sets setup_s. A set-up calls
// r.step after each of its steps; the host's speed is sampled there.
// Every set-up runs the same steps, and setup_s is the sum over the
// steps of each step's median time over the set-ups, each time
// normalised by the speed around it, so that neither one slow set-up
// nor one slow step in a set-up moves it. Each set-up replaces the
// state of the one before, so the measured phase runs on the last of
// the set-ups timed.
func (r *run) timeSetup(reps int, setup func() error) error {
	var steps []unit
	per := 0
	for i := 0; i < reps; i++ {
		// Start every set-up, and the measured phase after the last one,
		// from a collected heap rather than the previous set-up's garbage.
		runtime.GC()
		r.steps, r.stepT0 = nil, time.Now()
		if err := setup(); err != nil {
			return err
		}
		if i == 0 {
			per = len(r.steps)
		} else if len(r.steps) != per {
			return fmt.Errorf("set-up %d took %d steps, the first %d", i, len(r.steps), per)
		}
		steps = append(steps, r.steps...)
	}
	runtime.GC()
	r.cal.sample()
	norm, raw := r.stepMedians(steps, per)
	r.setNorm("setup_s", sum(norm), sum(raw), "s")
	return nil
}

// stepMedians takes the units of several set-ups, perSetup units each
// in the same order, and returns each unit's median time over the
// set-ups, normalised for setupPar cores and raw.
func (r *run) stepMedians(units []unit, perSetup int) (norm, raw []float64) {
	for j := 0; j < perSetup; j++ {
		var nj, wj []float64
		for i := j; i < len(units); i += perSetup {
			nj = append(nj, blendS(&r.cal, &r.calN, r.setupPar, units[i]))
			wj = append(wj, units[i].rawS())
		}
		norm, raw = append(norm, median(nj)), append(raw, median(wj))
	}
	return norm, raw
}

// setProfiledRate sets profiled_minst_per_s from the profiling units of
// the set-ups, perSetup units of n instructions each per set-up:
// perSetup·n instructions over the sum of each unit's median time over
// the set-ups, so that neither one slow set-up nor one slow unit moves
// it.
func (r *run) setProfiledRate(profs []unit, perSetup int, n float64) {
	norm, raw := r.stepMedians(profs, perSetup)
	r.setNorm("profiled_minst_per_s", float64(perSetup)*n/sum(norm)/1e6, float64(perSetup)*n/sum(raw)/1e6, "Minst/s")
}

// fits reports whether another round of work, as long as the last,
// ends within --seconds of start. The measured phase runs whole rounds
// while they fit, and always one.
func (r *run) fits(start time.Time, last time.Duration) bool {
	return (time.Since(start) + last).Seconds() <= r.seconds
}

// step ends one step of a set-up, once the process has gone quiet,
// samples the host's speed and returns the step.
func (r *run) step() unit {
	u := unit{t0: r.stepT0, t1: r.cal.sample()}
	if r.setupPar > 1 {
		r.calN.sample()
	}
	r.steps = append(r.steps, u)
	r.stepT0 = time.Now()
	return u
}

// markMeasured records the peak RSS at the end of a workload's
// measured phase, and collects the heap so the checks that follow start
// clean.
func (r *run) markMeasured() {
	r.rssMiB = peakRSSMiB()
	runtime.GC()
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// splitmix is the benchmark's input generator: every input a workload
// builds comes from one of these seeded with --seed.
type splitmix struct{ s uint64 }

func (g *splitmix) next() uint64 {
	g.s += 0x9e3779b97f4a7c15
	z := g.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (g *splitmix) intn(n int) int { return int(g.next() % uint64(n)) }

func (g *splitmix) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, g.intn(i+1))
	}
}
