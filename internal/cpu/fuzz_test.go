package cpu

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/trace"
)

// randomStream builds a structurally valid but otherwise arbitrary
// instruction stream from fuzz input.
func randomStream(seed uint64, n int) []trace.DynInst {
	rng := stats.NewRNG(seed)
	out := make([]trace.DynInst, n)
	pc := uint64(0x400000)
	for i := range out {
		cls := isa.Class(rng.Intn(int(isa.NumClasses)))
		d := trace.DynInst{
			Seq:     uint64(i),
			PC:      pc,
			NextPC:  pc + 8,
			Class:   cls,
			BlockID: int32(rng.Intn(50)),
			Index:   int16(rng.Intn(8)),
		}
		if cls.IsMem() {
			d.EffAddr = uint64(rng.Intn(1 << 24))
		}
		if cls.IsBranch() {
			d.Taken = rng.Intn(2) == 0
			if rng.Intn(4) == 0 {
				d.Flags |= trace.FlagBrMispredict
			} else if rng.Intn(4) == 0 {
				d.Flags |= trace.FlagBrFetchRedirect
			}
			if d.Taken {
				d.NextPC = uint64(0x400000 + rng.Intn(1<<16)*8)
			}
		}
		if rng.Intn(3) == 0 {
			d.Flags |= trace.FlagL1IMiss
		}
		if cls == isa.Load && rng.Intn(3) == 0 {
			d.Flags |= trace.FlagL1DMiss | trace.FlagDTLBMiss
			if rng.Intn(2) == 0 {
				d.Flags |= trace.FlagL2DMiss
			}
		}
		nsrc := rng.Intn(isa.MaxSrcOperands + 1)
		d.NumSrcs = uint8(nsrc)
		for op := 0; op < nsrc; op++ {
			if rng.Intn(2) == 0 {
				d.DepDist[op] = uint32(rng.Intn(700))
			}
		}
		if cls.HasDest() && rng.Intn(2) == 0 {
			d.WAWDist = uint32(rng.Intn(700))
		}
		pc += 8
	}
	return out
}

// Property: any structurally valid stream commits completely, in both
// pipeline disciplines, under several window configurations, with
// cycles >= instructions/issue-width.
func TestPipelineFuzzCompletes(t *testing.T) {
	f := func(seed uint64, small bool, inorder bool) bool {
		n := 2000
		insts := randomStream(seed, n)
		cfg := DefaultConfig()
		cfg.PerfectCaches = false
		cfg.InOrder = inorder
		if small {
			cfg.RUUSize = 16
			cfg.LSQSize = 8
			cfg.IFQSize = 4
			cfg.DecodeWidth, cfg.IssueWidth, cfg.CommitWidth = 2, 2, 2
			cfg.FetchSpeed = 1
		}
		r := NewTraceDriven(cfg, trace.NewSliceSource(insts)).Run()
		if r.Instructions != uint64(n) {
			t.Logf("seed %d: committed %d of %d", seed, r.Instructions, n)
			return false
		}
		minCycles := uint64(n) / uint64(cfg.IssueWidth)
		return r.Cycles >= minCycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: execution-driven mode completes on arbitrary streams too
// (live predictor + caches), and activity counters stay consistent.
func TestPipelineFuzzEDSConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		n := 1500
		insts := randomStream(seed, n)
		cfg := DefaultConfig()
		r := NewExecutionDriven(cfg, trace.NewSliceSource(insts)).Run()
		if r.Instructions != uint64(n) {
			return false
		}
		// Committed never exceeds dispatched, dispatched never exceeds
		// fetched.
		if r.Act.Committed > r.Act.Dispatched || r.Act.Dispatched > r.Act.Fetched {
			return false
		}
		// Every committed instruction was issued exactly once; wrong-path
		// issues can only add.
		return r.Act.Issued >= r.Act.Committed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamBuf(t *testing.T) {
	insts := make([]trace.DynInst, 100)
	for i := range insts {
		insts[i].Seq = uint64(i)
	}
	_, w := newWindow(trace.NewSliceSource(insts))
	if d := w.At(0); d == nil || d.Seq != 0 {
		t.Fatal("At(0) failed")
	}
	if d := w.At(99); d == nil || d.Seq != 99 {
		t.Fatal("At(99) failed")
	}
	// Rewind within the window works.
	if d := w.At(10); d == nil || d.Seq != 10 {
		t.Fatal("rewind failed")
	}
	if w.At(100) != nil {
		t.Fatal("beyond EOF should be nil")
	}
	if w.At(100) != nil {
		t.Fatal("EOF must be sticky")
	}
	// Release then access above the release point.
	w.Release(50)
	if d := w.At(60); d == nil || d.Seq != 60 {
		t.Fatal("access after release failed")
	}
}

func TestStreamBufReleaseCompaction(t *testing.T) {
	insts := make([]trace.DynInst, 10000)
	for i := range insts {
		insts[i].Seq = uint64(i)
	}
	sp, w := newWindow(trace.NewSliceSource(insts))
	w.At(9000)
	w.Release(8192) // above the compaction threshold
	sp.Trim()
	if sp.WindowLen() >= 9000 {
		t.Errorf("window not compacted: %d entries", sp.WindowLen())
	}
	if d := w.At(8500); d == nil || d.Seq != 8500 {
		t.Fatal("post-compaction access failed")
	}
	defer func() {
		if recover() == nil {
			t.Error("access below release point should panic")
		}
	}()
	w.At(100)
}
