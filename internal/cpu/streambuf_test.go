package cpu

import (
	"testing"

	"repro/internal/trace"
)

// The pipeline reads its stream through a trace.Spool cursor (its
// "stream buffer"). These cases pin the window behaviour fetch relies
// on: sequential reads, rewinds above the release mark, sticky EOF and
// compaction that never loses a live instruction.

func countingSource(n int) trace.Source {
	insts := make([]trace.DynInst, n)
	for i := range insts {
		insts[i].PC = uint64(i)
	}
	return trace.NewSliceSource(insts)
}

// newWindow builds a stream window the way newPipeline does for the
// serial path, returning the spool too so tests can trim and measure.
func newWindow(src trace.Source) (*trace.Spool, *trace.Cursor) {
	sp := trace.NewSpool(src)
	return sp, sp.NewCursor()
}

func TestStreamBufSequentialAndRewind(t *testing.T) {
	_, w := newWindow(countingSource(100))
	for pos := uint64(0); pos < 100; pos++ {
		d := w.At(pos)
		if d == nil || d.PC != pos {
			t.Fatalf("At(%d) = %+v", pos, d)
		}
	}
	// Rewind to an unreleased position (the misprediction re-fetch path).
	if d := w.At(10); d == nil || d.PC != 10 {
		t.Fatalf("rewind to 10: %+v", d)
	}
}

func TestStreamBufEOF(t *testing.T) {
	_, w := newWindow(countingSource(5))
	if d := w.At(4); d == nil || d.PC != 4 {
		t.Fatalf("last instruction: %+v", d)
	}
	if d := w.At(5); d != nil {
		t.Fatalf("read past EOF: %+v", d)
	}
	// EOF is sticky: the source is not consulted again.
	if d := w.At(1_000); d != nil {
		t.Fatalf("far past EOF: %+v", d)
	}
	// Buffered instructions stay readable after EOF.
	if d := w.At(2); d == nil || d.PC != 2 {
		t.Fatalf("buffered after EOF: %+v", d)
	}
}

func TestStreamBufAccessBelowReleasePanics(t *testing.T) {
	sp, w := newWindow(countingSource(10_000))
	for pos := uint64(0); pos < 5_000; pos++ {
		w.At(pos)
	}
	w.Release(5_000) // drop >= 4096 forces compaction
	sp.Trim()
	if got, want := sp.WindowLen(), 5*trace.DefaultBatchSize-5_000; got != want {
		t.Fatalf("window after release = %d, want %d", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("access below release point did not panic")
		}
	}()
	w.At(4_999)
}

func TestStreamBufReleaseBoundaries(t *testing.T) {
	sp, w := newWindow(countingSource(100))
	for pos := uint64(0); pos < 100; pos++ {
		w.At(pos)
	}
	// Releasing at the start is a no-op.
	w.Release(0)
	sp.Trim()
	if sp.WindowLen() != 100 {
		t.Fatalf("Release(0) changed the window: len=%d", sp.WindowLen())
	}
	// A small release below the compaction threshold keeps the prefix
	// buffered — trimming is advisory, not exact — but the mark is.
	w.Release(10)
	sp.Trim()
	if sp.WindowLen() != 100 {
		t.Fatalf("small release compacted early: len=%d", sp.WindowLen())
	}
	if d := w.At(10); d == nil || d.PC != 10 {
		t.Fatalf("At(10) at the mark = %+v", d)
	}
	// Releasing the whole window compacts regardless of size.
	w.Release(100)
	sp.Trim()
	if sp.WindowLen() != 0 {
		t.Fatalf("full release: len=%d", sp.WindowLen())
	}
	// The stream continues cleanly after a full release... until EOF.
	if d := w.At(100); d != nil {
		t.Fatalf("exhausted source produced %+v", d)
	}
	// Releasing beyond everything buffered clamps to the buffered end.
	w.Release(1_000)
	sp.Trim()
	if sp.WindowLen() != 0 {
		t.Fatalf("over-release: len=%d", sp.WindowLen())
	}
	if d := w.At(1_000); d != nil {
		t.Fatalf("At past EOF after over-release = %+v", d)
	}
}

func TestStreamBufCompactionPreservesContent(t *testing.T) {
	const n = 20_000
	sp, w := newWindow(countingSource(n))
	for pos := uint64(0); pos < n; pos++ {
		if d := w.At(pos); d == nil || d.PC != pos {
			t.Fatalf("At(%d) = %+v", pos, d)
		}
		// Release in chunks as commit would; compaction must be
		// invisible to subsequent reads.
		if pos%4_096 == 0 {
			w.Release(pos)
		}
	}
	if sp.WindowLen() > 4_096+2*trace.DefaultBatchSize {
		t.Fatalf("window kept %d instructions behind a %d-instruction release cadence", sp.WindowLen(), 4_096)
	}
}
