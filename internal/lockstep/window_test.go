package lockstep

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/trace"
)

// windowTraceLen is the trace length of the window tests: long enough
// that every instance's commit runs far past the spool's trim
// hysteresis many times over.
const windowTraceLen = 20_000

// windowTrace is a deterministic synthetic-style trace with loads,
// stores, taken and mispredicted branches, cache misses and short
// dependency distances, so every instance stalls, mispredicts and
// rewinds its fetch frontier into the shared window.
func windowTrace(n int) []trace.DynInst {
	rng := rand.New(rand.NewSource(7))
	insts := make([]trace.DynInst, n)
	for i := range insts {
		d := &insts[i]
		d.Seq, d.PC = uint64(i), uint64(i)*4
		switch r := rng.Intn(100); {
		case r < 20:
			d.Class = isa.Load
			if rng.Intn(20) == 0 {
				d.Flags |= trace.FlagL1DMiss
				if rng.Intn(4) == 0 {
					d.Flags |= trace.FlagL2DMiss
				}
			}
		case r < 30:
			d.Class = isa.Store
		case r < 45:
			d.Class = isa.IntBranch
			d.Taken = rng.Intn(2) == 0
			if rng.Intn(12) == 0 {
				d.Flags |= trace.FlagBrMispredict
			}
		case r < 50:
			d.Class = isa.IntMul
		default:
			d.Class = isa.IntALU
		}
		if rng.Intn(50) == 0 {
			d.Flags |= trace.FlagL1IMiss
		}
		d.NumSrcs = uint8(rng.Intn(3))
		for op := 0; op < int(d.NumSrcs); op++ {
			d.DepDist[op] = uint32(1 + rng.Intn(24))
		}
	}
	return insts
}

// windowGrid returns n configurations cycling through window sizes and
// widths, RUU up to 256 entries.
func windowGrid(n int) []cpu.Config {
	ruus := []int{16, 64, 128, 256}
	widths := []int{2, 4, 8}
	cfgs := make([]cpu.Config, n)
	for i := range cfgs {
		c := cpu.DefaultConfig()
		c.RUUSize = ruus[i%len(ruus)]
		c.LSQSize = c.RUUSize / 2
		w := widths[(i/len(ruus))%len(widths)]
		c.DecodeWidth, c.IssueWidth, c.CommitWidth = w, w, w
		cfgs[i] = c
	}
	return cfgs
}

// probeSource is the cohort's trace source; it records the spool's
// window length each time the spool asks it for more, i.e. the window
// a fill is about to grow.
type probeSource struct {
	*trace.SliceSource
	sp   *trace.Spool
	peak int
}

func (p *probeSource) NextBatch(dst []trace.DynInst) int {
	p.peak = max(p.peak, p.sp.WindowLen())
	return p.SliceSource.NextBatch(dst)
}

// Bounds of TestCohortSharesOneWindow, none scaling with the cohort
// size: one cohort's window (peak instructions and the bytes its
// growth allocates) and what each pipeline allocates for itself (RUU,
// IFQ, dependency table, completion wheel, waiter lists — no copy of
// the trace).
const (
	windowPeakInsts  = 4096 + 4*trace.DefaultBatchSize
	windowBytes      = 4 << 20
	perPipelineBytes = 384 << 10
)

// TestCohortSharesOneWindow: a lockstep cohort reads its trace out of
// one spool window. One Simulate call over 16 configurations allocates
// one window for the cohort, not one per instance: its allocated bytes
// stay within a per-cohort window budget plus a per-pipeline budget too
// small to hold a private trace buffer, and the window itself stays a
// few chunks wide, for 2 and for 16 instances alike.
func TestCohortSharesOneWindow(t *testing.T) {
	insts := windowTrace(windowTraceLen)
	for _, n := range []int{2, DefaultMaxGroup} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			cfgs := windowGrid(n)

			probe := &probeSource{SliceSource: trace.NewSliceSource(insts)}
			probe.sp = trace.NewSpool(probe)
			res := simulate(cfgs, probe.sp)
			for i, r := range res {
				if r.Instructions != windowTraceLen {
					t.Fatalf("instance %d committed %d instructions, want %d", i, r.Instructions, windowTraceLen)
				}
			}
			if probe.peak > windowPeakInsts {
				t.Errorf("spool window reached %d instructions, want <= %d", probe.peak, windowPeakInsts)
			}
			if w := probe.sp.WindowLen(); w != 0 {
				t.Errorf("window holds %d instructions after every instance drained", w)
			}

			// Fewest bytes over a few calls: a background allocation
			// (the test runner, a GC worker) can only add.
			var bytes uint64
			for rep := 0; rep < 3; rep++ {
				src := trace.NewSliceSource(insts)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				Simulate(cfgs, src)
				runtime.ReadMemStats(&after)
				if b := after.TotalAlloc - before.TotalAlloc; rep == 0 || b < bytes {
					bytes = b
				}
			}
			limit := uint64(windowBytes + n*perPipelineBytes)
			t.Logf("n=%d: %d bytes allocated (%d per instance), window peak %d instructions",
				n, bytes, bytes/uint64(n), probe.peak)
			if bytes > limit {
				t.Errorf("Simulate over %d configurations allocated %d bytes, want <= %d "+
					"(one %d-byte window per cohort + %d per pipeline; a private window of %d instructions per instance would be %d bytes each)",
					n, bytes, limit, windowBytes, perPipelineBytes, windowPeakInsts, windowPeakInsts*unsafe.Sizeof(trace.DynInst{}))
			}
		})
	}
}
