package cpu

import (
	"testing"

	"repro/internal/trace"
)

// endlessSource is an unbounded committed stream for steady-state
// measurements.
type endlessSource struct{ pc uint64 }

func (s *endlessSource) Next(d *trace.DynInst) bool {
	*d = trace.DynInst{PC: s.pc}
	s.pc++
	return true
}

// TestStreamBufZeroAllocSteadyState pins the fetch path's allocation
// behaviour: once the pipeline's stream window (a one-cursor spool, as
// newPipeline builds it for the serial path) has grown to its working
// size, At/Release cycles — chunked refills in place, in-place
// compaction on fill — allocate nothing. Skipped under -race: the race
// runtime instruments allocations.
func TestStreamBufZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	w := trace.NewSpool(&endlessSource{}).NewCursor()
	pos := uint64(0)
	step := func() {
		if w.At(pos) == nil {
			t.Fatal("endless source reported EOF")
		}
		// Release a little behind the frontier, as commit does.
		if pos >= 200 {
			w.Release(pos - 200)
		}
		pos++
	}
	for pos < 100_000 { // warm: window capacity stabilises
		step()
	}
	if a := testing.AllocsPerRun(100, func() {
		for end := pos + 8192; pos < end; {
			step()
		}
	}); a != 0 {
		t.Errorf("stream window At/Release: %v allocs/run in steady state, want 0", a)
	}
}
