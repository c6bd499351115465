package trace

import (
	"math/rand"
	"testing"
)

// reader is a test consumer: a cursor plus the next position it reads,
// releasing everything below it as it goes (a consumer that never
// rewinds).
type reader struct {
	c   *Cursor
	pos uint64
	got []DynInst
}

// read copies up to n instructions, reporting how many it read before
// the stream ended.
func (r *reader) read(n int) int {
	k := 0
	for ; k < n; k++ {
		d := r.c.At(r.pos)
		if d == nil {
			break
		}
		r.got = append(r.got, *d)
		r.pos++
		r.c.Release(r.pos)
	}
	return k
}

// mustPanic runs f and fails the test unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestSpoolSingleCursor(t *testing.T) {
	for _, n := range []int{0, 1, DefaultBatchSize, 3*DefaultBatchSize + 7} {
		sp := NewSpool(NewSliceSource(seqInsts(n)))
		r := &reader{c: sp.NewCursor()}
		r.read(n + 10)
		checkStream(t, r.got, n)
		// End of stream is sticky.
		if d := r.c.At(r.pos + 5); d != nil {
			t.Fatalf("At past the end returned %+v", d)
		}
	}
}

// TestSpoolCursorsSeeIdenticalStreams: every cursor observes the full
// canonical sequence regardless of how reads interleave.
func TestSpoolCursorsSeeIdenticalStreams(t *testing.T) {
	const n = 5*DefaultBatchSize + 13
	sp := NewSpool(NewSliceSource(seqInsts(n)))
	// a sprints ahead a chunk at a time, b follows in odd-sized steps,
	// c reads 50 instructions per round.
	rs := []*reader{{c: sp.NewCursor()}, {c: sp.NewCursor()}, {c: sp.NewCursor()}}
	steps := []int{DefaultBatchSize, 97, 50}
	for {
		moved := 0
		for i, r := range rs {
			moved += r.read(steps[i])
		}
		sp.Trim()
		if moved == 0 {
			break
		}
	}
	for _, r := range rs {
		checkStream(t, r.got, n)
	}
}

// TestSpoolTrimBoundsWindow: with laggard-first scheduling the window
// must stay within a couple of chunks plus the trim hysteresis, no
// matter how long the stream is.
func TestSpoolTrimBoundsWindow(t *testing.T) {
	const n = 40 * DefaultBatchSize
	sp := NewSpool(NewSliceSource(seqInsts(n)))
	rs := []*reader{{c: sp.NewCursor()}, {c: sp.NewCursor()}, {c: sp.NewCursor()}}
	maxWindow := 0
	for {
		// Advance the laggard, as the lockstep driver does.
		lag := rs[0]
		for _, r := range rs[1:] {
			if r.pos < lag.pos {
				lag = r
			}
		}
		if lag.read(DefaultBatchSize) == 0 {
			break
		}
		if w := sp.WindowLen(); w > maxWindow {
			maxWindow = w
		}
	}
	// A fill trims first and compacts once the dead prefix reaches
	// 4096; the live spread under laggard-first scheduling is at most
	// one chunk, and a fill adds one more.
	if limit := 4096 + 2*DefaultBatchSize; maxWindow > limit {
		t.Fatalf("window grew to %d instructions, want <= %d", maxWindow, limit)
	}
}

// TestSpoolCloseReleasesWindow: closing every cursor drops the whole
// retained window even when the stream was not fully consumed.
func TestSpoolCloseReleasesWindow(t *testing.T) {
	sp := NewSpool(NewSliceSource(seqInsts(4 * DefaultBatchSize)))
	a, b := &reader{c: sp.NewCursor()}, &reader{c: sp.NewCursor()}
	a.read(DefaultBatchSize)
	b.read(7) // b stays mid-window, pinning the rest of the chunk
	a.c.Close()
	if sp.WindowLen() == 0 {
		t.Fatal("window released while an open cursor still has unread data")
	}
	b.c.Close()
	if w := sp.WindowLen(); w != 0 {
		t.Fatalf("window holds %d instructions after all cursors closed, want 0", w)
	}
	mustPanic(t, "At on a closed cursor", func() { b.c.At(b.pos) })
}

// TestSpoolLateCursorPanics: registering a consumer after consumption
// began would silently miss trimmed data, so it must panic instead.
func TestSpoolLateCursorPanics(t *testing.T) {
	sp := NewSpool(NewSliceSource(seqInsts(DefaultBatchSize)))
	sp.NewCursor().At(0)
	mustPanic(t, "NewCursor after consumption began", func() { sp.NewCursor() })
}

// TestSpoolEmptySource: EOF before any data.
func TestSpoolEmptySource(t *testing.T) {
	sp := NewSpool(NewSliceSource(nil))
	c := sp.NewCursor()
	if d := c.At(0); d != nil {
		t.Fatalf("At(0) on an empty source returned %+v", d)
	}
	if d := c.At(0); d != nil {
		t.Fatalf("second At(0) on an empty source returned %+v", d)
	}
}

// TestSpoolTrimKeepsOpenMarks: whatever the consumers' marks and read
// positions, Trim never drops an entry at or above the lowest open
// release mark — every such position still reads its original record.
func TestSpoolTrimKeepsOpenMarks(t *testing.T) {
	const n = 30 * DefaultBatchSize
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		sp := NewSpool(NewSliceSource(seqInsts(n)))
		curs := []*Cursor{sp.NewCursor(), sp.NewCursor(), sp.NewCursor()}
		marks := make([]uint64, len(curs))
		for round := 0; round < 200; round++ {
			i := rng.Intn(len(curs))
			if marks[i] >= n {
				continue
			}
			// Read ahead of the mark by up to two chunks, then advance
			// the mark by a random amount, sometimes far.
			ahead := marks[i] + uint64(rng.Intn(2*DefaultBatchSize))
			if d := curs[i].At(ahead); d != nil && d.Seq != ahead {
				t.Fatalf("trial %d: At(%d) read Seq %d", trial, ahead, d.Seq)
			}
			marks[i] += uint64(rng.Intn(3 * DefaultBatchSize))
			curs[i].Release(marks[i])
			sp.Trim()
			low := marks[0]
			for _, m := range marks[1:] {
				low = min(low, m)
			}
			// Every position from the lowest mark up to what has been
			// pulled so far is still readable, by every cursor at or
			// below it.
			for j, c := range curs {
				for pos := max(low, marks[j]); pos < low+uint64(sp.WindowLen()) && pos < n; pos += 37 {
					if d := c.At(pos); d == nil || d.Seq != pos || d.PC != pos*8 {
						t.Fatalf("trial %d: cursor %d At(%d) after Trim = %+v (marks %v)", trial, j, pos, d, marks)
					}
				}
			}
		}
	}
}

// TestSpoolRewindAfterOthersAdvance: a consumer that rewinds to its own
// mark after the others have run far ahead — far enough that the
// window has filled, grown and compacted many times — reads the
// original bytes (the misprediction re-fetch of a slow lockstep
// instance).
func TestSpoolRewindAfterOthersAdvance(t *testing.T) {
	const n = 20 * DefaultBatchSize
	sp := NewSpool(NewSliceSource(seqInsts(n)))
	slow := sp.NewCursor()
	fast := []*reader{{c: sp.NewCursor()}, {c: sp.NewCursor()}}
	const mark = 3*DefaultBatchSize + 5
	for pos := uint64(0); pos < mark+100; pos++ {
		slow.At(pos)
	}
	slow.Release(mark)
	// The others consume everything; every fill trims up to slow's mark.
	for _, r := range fast {
		r.read(n)
		checkStream(t, r.got, n)
	}
	if w := sp.WindowLen(); w < n-mark {
		t.Fatalf("window holds %d instructions, but slow's mark pins %d", w, n-mark)
	}
	for pos := uint64(mark); pos < n; pos++ {
		if d := slow.At(pos); d == nil || d.Seq != pos || d.PC != pos*8 {
			t.Fatalf("rewound At(%d) = %+v", pos, d)
		}
	}
	// Now release slow far ahead and let the window compact, then
	// rewind the fast readers to their own (final) marks.
	slow.Release(n)
	sp.Trim()
	if w := sp.WindowLen(); w != 0 {
		t.Fatalf("window holds %d instructions after every mark reached the end", w)
	}
	for _, r := range fast {
		if d := r.c.At(r.pos); d != nil {
			t.Fatalf("At(%d) at the end of the stream = %+v", r.pos, d)
		}
	}
}

// TestSpoolReadBelowMarkPanics: a consumer reading below its own
// release mark is a bug even while the entry is still in the window
// (another consumer may pin it), so it must panic.
func TestSpoolReadBelowMarkPanics(t *testing.T) {
	sp := NewSpool(NewSliceSource(seqInsts(4 * DefaultBatchSize)))
	a, b := sp.NewCursor(), sp.NewCursor()
	a.At(100)
	b.At(100)
	a.Release(50) // b's mark (0) still pins position 49
	if d := b.At(49); d == nil || d.Seq != 49 {
		t.Fatalf("b.At(49) = %+v", d)
	}
	mustPanic(t, "At below the cursor's own mark", func() { a.At(49) })
	// Release is monotone: a lower value does not reopen the prefix.
	a.Release(10)
	mustPanic(t, "At below a mark after a lower Release", func() { a.At(20) })
}
