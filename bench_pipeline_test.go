package statsim

import (
	"testing"

	"repro/internal/trace"
)

// The pipeline benchmarks measure the three stages of the statistical
// simulation methodology in isolation plus the whole path end to end.
// They are the CI bench job's regression surface: benchjson archives
// them per commit as BENCH_<sha>.json and `benchjson -compare` warns
// when a stage regresses by more than 10% against the previous artifact.
const (
	benchProfileN  = 100_000
	benchSynthR    = 2
	benchSeed      = 1
	benchWorkloadN = "gzip"
)

func benchWorkload(b *testing.B) Workload {
	b.Helper()
	w, err := LoadWorkload(benchWorkloadN)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkProfile measures statistical profiling (stream execution +
// SFG construction) in profiled instructions per second.
func BenchmarkProfile(b *testing.B) {
	w := benchWorkload(b)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Profile(cfg, w.Stream(benchSeed, 0, benchProfileN), ProfileOptions{K: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchProfileN)*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
}

// BenchmarkGenerate measures synthetic trace generation alone: the
// stochastic walk over the reduced SFG, drained through the stream API.
func BenchmarkGenerate(b *testing.B) {
	w := benchWorkload(b)
	cfg := DefaultConfig()
	g, err := Profile(cfg, w.Stream(benchSeed, 0, benchProfileN), ProfileOptions{K: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		src, err := NewSyntheticTrace(g, benchSynthR, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		total += drain(src)
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "inst/s")
}

// BenchmarkSimulate measures the trace-driven timing simulator on a
// pre-materialised synthetic trace (pure simulation, no generation).
// Besides ns/op it reports simulated (committed) instructions per
// second and the kernel's cost per simulated instruction.
func BenchmarkSimulate(b *testing.B) {
	w := benchWorkload(b)
	cfg := DefaultConfig()
	g, err := Profile(cfg, w.Stream(benchSeed, 0, benchProfileN), ProfileOptions{K: 1})
	if err != nil {
		b.Fatal(err)
	}
	src, err := NewSyntheticTrace(g, benchSynthR, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	insts := trace.Collect(src, 0)
	b.ReportAllocs()
	b.ResetTimer()
	var simulated uint64
	for i := 0; i < b.N; i++ {
		simulated += SimulateTrace(cfg, trace.NewSliceSource(insts)).Instructions
	}
	reportSimulated(b, simulated)
}

// reportSimulated reports a simulation benchmark's throughput in
// simulated (committed) instructions: inst/s, and ns/sim-inst — the
// kernel's cost per simulated instruction, comparable across
// benchmarks whose ops simulate different amounts.
func reportSimulated(b *testing.B, simulated uint64) {
	b.ReportMetric(float64(simulated)/b.Elapsed().Seconds(), "inst/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(simulated), "ns/sim-inst")
}

// BenchmarkEndToEnd measures the whole statistical simulation pipeline:
// profile the workload, reduce, generate and simulate the synthetic
// trace. Reported throughput is in profiled (original-stream)
// instructions per second — the paper's headline speed metric.
func BenchmarkEndToEnd(b *testing.B) {
	w := benchWorkload(b)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := Profile(cfg, w.Stream(benchSeed, 0, benchProfileN), ProfileOptions{K: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := StatSim(cfg, g, ReductionFor(g, benchProfileN/10), benchSeed); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchProfileN)*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
}

// batchDrainer is the chunked delivery interface, declared locally so
// this benchmark file also compiles (and falls back to Next) on trees
// that predate trace.BatchSource.
type batchDrainer interface {
	NextBatch(dst []trace.DynInst) int
}

// drain consumes a source to exhaustion, returning the instruction
// count. It uses chunked delivery when the source supports it — the
// way pipeline consumers are meant to drain a generator.
func drain(src Source) uint64 {
	var n uint64
	if bs, ok := src.(batchDrainer); ok {
		buf := make([]trace.DynInst, 1024)
		for {
			k := bs.NextBatch(buf)
			if k == 0 {
				return n
			}
			n += uint64(k)
		}
	}
	var d trace.DynInst
	for src.Next(&d) {
		n++
	}
	return n
}
