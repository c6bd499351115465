package trace

// Spool materialises one BatchSource stream exactly once and serves it
// to N independent Cursor consumers by reference — the sharing
// primitive behind lockstep multi-config simulation, where a single
// synthetic-trace generation pass drives many pipeline instances, and
// the stream window of every pipeline (the serial path is a spool with
// one cursor).
//
// The spool keeps one sliding window of the stream. A consumer reads
// by stream position (Cursor.At) straight out of that window; whoever
// asks past its end pulls fresh chunks from the source. Each consumer
// publishes a release mark (Cursor.Release): the oldest position it can
// still ask for, e.g. the oldest instruction a pipeline may re-fetch
// after a misprediction. Trim drops everything below the lowest open
// release mark. A scheduler that advances the laggard first
// (internal/lockstep) keeps the window a few chunks wide regardless of
// consumer count, so every consumer reads the same cache-resident
// bytes.
//
// Pointer validity: a *DynInst returned by At stays valid only until
// the next call on the same spool (At, Release, Trim or Close through
// any of its cursors), because a fill may grow the window and a trim
// may compact it. Consumers copy what they need to keep.
//
// Concurrency: a Spool and its Cursors belong to one goroutine — the
// lockstep driver advances instances sequentially. Create every cursor
// before the first read; cursors created after consumption has begun
// would miss the already-trimmed prefix (NewCursor panics then).
type Spool struct {
	src     BatchSource
	base    uint64 // stream position of window[0]
	window  []DynInst
	eof     bool
	cursors []*Cursor
}

// NewSpool wraps src (adapted to the batch interface if needed) for
// multi-cursor consumption. The source must not be read by anyone else.
func NewSpool(src Source) *Spool {
	return &Spool{src: Batched(src)}
}

// NewCursor registers a new consumer with its release mark at the start
// of the stream. All cursors must be created before any of them reads.
func (s *Spool) NewCursor() *Cursor {
	if s.base != 0 || len(s.window) != 0 || s.eof {
		panic("trace: Spool.NewCursor after consumption began")
	}
	c := &Cursor{sp: s}
	s.cursors = append(s.cursors, c)
	return c
}

// fill extends the window by up to one chunk from the source, first
// trimming the released prefix so the window only grows when the live
// span itself outgrows it.
func (s *Spool) fill() {
	s.Trim()
	n := len(s.window)
	if cap(s.window)-n < DefaultBatchSize {
		grown := make([]DynInst, n, 2*cap(s.window)+DefaultBatchSize)
		copy(grown, s.window)
		s.window = grown
	}
	k := s.src.NextBatch(s.window[n : n+DefaultBatchSize])
	if k == 0 {
		s.eof = true
		return
	}
	s.window = s.window[:n+k]
}

// Trim discards window entries below the lowest open release mark,
// compacting only when a sizeable prefix is dead (amortising the copy).
// It never drops an entry at or above that mark. With every cursor
// closed the whole window is released.
func (s *Spool) Trim() {
	min := ^uint64(0)
	for _, c := range s.cursors {
		if c.mark < min {
			min = c.mark
		}
	}
	if min == ^uint64(0) { // every cursor closed
		s.base += uint64(len(s.window))
		s.window = s.window[:0]
		return
	}
	if min <= s.base {
		return
	}
	drop := min - s.base
	if drop > uint64(len(s.window)) {
		drop = uint64(len(s.window))
		min = s.base + drop
	}
	if drop >= 4096 || drop == uint64(len(s.window)) {
		s.window = append(s.window[:0], s.window[drop:]...)
		s.base = min
	}
}

// WindowLen reports the retained window size in instructions
// (observability and tests; the lockstep scheduler keeps it small).
func (s *Spool) WindowLen() int { return len(s.window) }

// Cursor is one consumer's view of a Spool: random access by stream
// position at or above its own release mark.
type Cursor struct {
	sp   *Spool
	mark uint64 // lowest position this consumer may still read; MaxUint64 once closed
}

// At returns the instruction at stream position pos, pulling from the
// source as needed; nil once the stream ends before pos. pos must be at
// or above the cursor's release mark (At panics otherwise). The pointer
// is valid until the next call on the spool (see Spool).
func (c *Cursor) At(pos uint64) *DynInst {
	if pos < c.mark {
		panic("trace: Cursor read below its release mark")
	}
	// pos >= mark >= base: base never passes an open mark.
	s := c.sp
	for pos-s.base >= uint64(len(s.window)) {
		if s.eof {
			return nil
		}
		s.fill()
	}
	return &s.window[pos-s.base]
}

// Release raises the cursor's release mark to pos: positions below it
// will not be read again and may be trimmed. Lower values are ignored,
// so the mark is monotone. Release does not trim by itself; the next
// fill (or an explicit Trim) does.
func (c *Cursor) Release(pos uint64) {
	if pos > c.mark {
		c.mark = pos
	}
}

// Close marks the cursor done so it no longer pins the window; any
// later At on it panics.
func (c *Cursor) Close() {
	c.mark = ^uint64(0)
	c.sp.Trim()
}
