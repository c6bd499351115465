package cpu

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/trace"
)

// entryState tracks an RUU entry through the pipeline back end.
type entryState uint8

const (
	stateWaiting entryState = iota // operands outstanding
	stateReady                     // operands available, not yet issued
	stateIssued                    // executing
	stateDone                      // result available
)

// waiterRef names a dependent RUU entry; gen guards against the slot
// having been squashed and reused since the dependency was recorded.
type waiterRef struct {
	slot int32
	gen  uint32
}

type ruuEntry struct {
	inst       trace.DynInst
	pos        uint64 // stream position
	completeAt uint64
	waiters    []waiterRef // RUU entries waiting on this result
	outcome    bpred.Outcome
	waitCount  int
	gen        uint32
	state      entryState
	wrongPath  bool
	isMem      bool
	active     bool

	dL1, dL2, dTLB bool // data-access locality events (loads/stores)
}

type ifqEntry struct {
	pos       uint64
	outcome   bpred.Outcome
	wrongPath bool
}

type depRec struct {
	pos  uint64
	slot int32
	gen  uint32
	used bool
}

const depTableSize = 4096 // > RUU + IFQ + MaxDependencyDistance, power of two

// Pipeline is one simulation instance. It is single-use: construct,
// Run, read the Result.
type Pipeline struct {
	cfg Config

	// win is this pipeline's view of the committed-path stream: the
	// fetch stage reads instructions by position straight out of a
	// shared trace.Spool window, so that fetch can rewind after a branch
	// misprediction (the pipeline fills with upcoming instructions "as
	// if they were from the incorrect path", §2.3, squashes them when
	// the branch resolves, and re-fetches the same instructions as the
	// correct path). Commit publishes the release mark. A pointer from
	// win.At is never held across another call on the window.
	win *trace.Cursor

	// Per-cycle constants derived from cfg once at construction, so the
	// kernel neither recomputes nor copies the configuration.
	fetchWidth int
	wheelMask  uint64

	// Live locality models. Execution-driven mode sets all of them;
	// plain trace mode sets none; the synthetic-address mode
	// (Config.SimulateDCache) sets only dHier, keeping I-side and
	// branch events flag-driven.
	iHier *cache.Hierarchy
	dHier *cache.Hierarchy
	pred  *bpred.Predictor

	// RUU ring.
	ruu     []ruuEntry
	ruuHead int
	ruuLen  int

	// IFQ ring.
	ifq     []ifqEntry
	ifqHead int
	ifqLen  int

	lsqLen int

	deps  [depTableSize]depRec
	ready []int32

	// Completion wheel: wheel[c & wheelMask] holds the entries whose
	// results become available at cycle c, so writeback touches only
	// completing entries instead of scanning the RUU every cycle. Its
	// length is a power of two.
	wheel [][]waiterRef

	// Functional-unit pools: busy-until cycle per unit instance.
	fuIntALU, fuLS, fuFPAdd, fuIntMul, fuFPMul []uint64

	cycle       uint64
	cycleBase   uint64 // cycle at which statistics last reset (warmup)
	fetchPos    uint64
	fetchResume uint64
	wrongPath   bool // fetch is currently delivering wrong-path instructions
	streamEnd   bool
	halted      bool   // stream exhausted and pipeline drained
	warmLeft    uint64 // instructions still to commit before stats reset

	// Forward-progress guard state (persisted across partial runs so a
	// lockstep-driven pipeline behaves exactly like a monolithic Run).
	lastCommitCycle uint64
	lastCommitted   uint64

	res       Result
	occRUUSum uint64
	occLSQSum uint64
	occIFQSum uint64
}

// NewExecutionDriven builds the reference simulator: locality events
// are computed live from fresh cache and branch-predictor models.
func NewExecutionDriven(cfg Config, src trace.Source) *Pipeline {
	p := newPipeline(cfg, trace.NewSpool(src).NewCursor())
	if !cfg.PerfectCaches {
		h := cache.NewHierarchy(cfg.Hier)
		p.iHier, p.dHier = h, h
	}
	if !cfg.PerfectBpred {
		p.pred = bpred.New(cfg.Bpred)
	}
	return p
}

// NewTraceDriven builds the synthetic-trace simulator: locality events
// are taken from the pre-assigned per-instruction flags (§2.3). With
// Config.SimulateDCache set and a trace carrying synthetic addresses,
// the data side of the hierarchy is simulated live instead, so cache
// configurations other than the profiled one can be evaluated.
func NewTraceDriven(cfg Config, src trace.Source) *Pipeline {
	return NewTraceDrivenOn(cfg, trace.NewSpool(src).NewCursor())
}

// NewTraceDrivenOn is NewTraceDriven reading its stream through win, a
// cursor on a spool that other consumers may share (the lockstep batch
// driver gives every instance of a cohort a cursor on one spool). The
// pipeline publishes its release marks on win and closes it once the
// run drains.
func NewTraceDrivenOn(cfg Config, win *trace.Cursor) *Pipeline {
	p := newPipeline(cfg, win)
	if cfg.SimulateDCache && !cfg.PerfectCaches {
		p.dHier = cache.NewHierarchy(cfg.Hier)
	}
	return p
}

func newPipeline(cfg Config, win *trace.Cursor) *Pipeline {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	// The wheel must cover the largest possible result latency: the
	// worst memory path plus slack for non-pipelined FU occupancy.
	wheelSize := 64
	for wheelSize <= cfg.Hier.MemLatency+cfg.Hier.TLBMissLatency+64 {
		wheelSize <<= 1
	}
	return &Pipeline{
		cfg:        cfg,
		win:        win,
		fetchWidth: cfg.FetchWidth(),
		wheelMask:  uint64(wheelSize - 1),
		warmLeft:   cfg.WarmupInsts,
		ruu:        make([]ruuEntry, cfg.RUUSize),
		ifq:        make([]ifqEntry, cfg.IFQSize),
		wheel:      make([][]waiterRef, wheelSize),
		fuIntALU:   make([]uint64, cfg.IntALUs),
		fuLS:       make([]uint64, cfg.LoadStore),
		fuFPAdd:    make([]uint64, cfg.FPAdders),
		fuIntMul:   make([]uint64, cfg.IntMulDivs),
		fuFPMul:    make([]uint64, cfg.FPMulDivs),
	}
}

// scheduleCompletion registers an issued entry on the completion wheel.
func (p *Pipeline) scheduleCompletion(slot int32, en *ruuEntry) {
	d := en.completeAt - p.cycle
	if d >= uint64(len(p.wheel)) {
		panic(fmt.Sprintf("cpu: latency %d exceeds completion wheel (%d)", d, len(p.wheel)))
	}
	idx := en.completeAt & p.wheelMask
	p.wheel[idx] = append(p.wheel[idx], waiterRef{slot: slot, gen: en.gen})
}

// Run simulates until the source is exhausted and the pipeline drains,
// returning the accumulated statistics.
func (p *Pipeline) Run() Result {
	p.RunToFetch(^uint64(0))
	return p.Finalize()
}

// step advances the pipeline by exactly one cycle and reports whether
// the run has drained (stream exhausted, windows empty). It is the one
// cycle kernel shared by Run and the lockstep batch driver, so a
// pipeline advanced in segments executes the identical cycle sequence
// as a monolithic run.
func (p *Pipeline) step() bool {
	p.commit()
	p.writeback()
	p.issue()
	p.dispatch()
	p.fetch()

	p.occRUUSum += uint64(p.ruuLen)
	p.occLSQSum += uint64(p.lsqLen)
	p.occIFQSum += uint64(p.ifqLen)
	p.cycle++

	if p.streamEnd && p.ruuLen == 0 && p.ifqLen == 0 {
		return true
	}
	// Deadlock guard: the pipeline must make forward progress.
	if p.res.Instructions != p.lastCommitted {
		p.lastCommitted = p.res.Instructions
		p.lastCommitCycle = p.cycle
	} else if p.cycle-p.lastCommitCycle > 1_000_000 {
		panic(fmt.Sprintf("cpu: no commit for 1M cycles at cycle %d (ruu=%d ifq=%d)",
			p.cycle, p.ruuLen, p.ifqLen))
	}
	return false
}

// RunToFetch advances the pipeline cycle by cycle until its fetch
// frontier reaches stream position limit or the run drains; it reports
// whether the run has drained. This is the batch-driver hook behind
// lockstep multi-config simulation: the driver moves each instance one
// stream chunk at a time, and because step is the same kernel Run uses,
// any segmentation of the run — including the degenerate
// RunToFetch(MaxUint64) that Run itself performs — produces
// byte-identical statistics.
//
// A mispredict recovery may rewind the fetch frontier below an
// already-reached limit; the next call simply advances until the
// frontier passes it again, re-reading from the stream window (which
// keeps everything at or above the pipeline's release mark). Once the
// run drains the pipeline closes its cursor, so it no longer pins the
// window.
func (p *Pipeline) RunToFetch(limit uint64) bool {
	for !p.halted {
		if p.fetchPos >= limit {
			return false
		}
		if p.step() {
			p.halted = true
			p.win.Close()
		}
	}
	return true
}

// Finalize computes the end-of-run aggregate statistics and returns the
// Result. Call once the run has drained (Run does it internally; batch
// drivers call it after RunToFetch reports the drain).
func (p *Pipeline) Finalize() Result {
	cycles := p.cycle - p.cycleBase
	p.res.Cycles = cycles
	if cycles > 0 {
		p.res.AvgRUUOcc = float64(p.occRUUSum) / float64(cycles)
		p.res.AvgLSQOcc = float64(p.occLSQSum) / float64(cycles)
		p.res.AvgIFQOcc = float64(p.occIFQSum) / float64(cycles)
	}
	return p.res
}

// ---------------------------------------------------------------- fetch

func (p *Pipeline) fetch() {
	if p.cycle < p.fetchResume {
		p.res.Pipe.Stall.FetchPenalty++
		p.res.Pipe.Fetch.observe(0)
		return
	}
	if p.streamEnd && p.wrongPath {
		p.res.Pipe.Stall.FetchStreamEnd++
		p.res.Pipe.Fetch.observe(0)
		return
	}
	// The loop exits by break, never return, so the stall accounting
	// after it sees every cycle (a defer here costs more than the
	// accounting itself).
	fetched := uint64(0)
	budget := p.fetchWidth
	for budget > 0 && p.ifqLen < p.cfg.IFQSize {
		d := p.win.At(p.fetchPos)
		if d == nil {
			if !p.wrongPath {
				p.streamEnd = true
			}
			break
		}
		e := ifqEntry{pos: p.fetchPos, wrongPath: p.wrongPath}
		p.res.Act.Fetched++
		fetched++
		budget--
		p.fetchPos++

		stall := 0
		if !p.wrongPath {
			stall = p.fetchLocality(d)
			if d.Class.IsBranch() {
				e.outcome = p.predictBranch(d)
			}
		}
		p.ifqPush(e)

		if !p.wrongPath && d.Class.IsBranch() {
			if e.outcome.Mispredicted {
				// Everything fetched from here on is wrong-path filler
				// until the branch resolves (§2.3).
				p.wrongPath = true
				break
			}
			if e.outcome.FetchRedirect {
				p.fetchResume = p.cycle + 1 + uint64(p.cfg.RedirectPenalty)
				break
			}
		}
		if stall > 0 {
			p.fetchResume = p.cycle + 1 + uint64(stall)
			break
		}
		if d.Taken {
			// At most one taken branch is fetched per cycle.
			break
		}
	}
	if fetched == 0 {
		switch {
		case p.ifqLen >= p.cfg.IFQSize:
			p.res.Pipe.Stall.FetchIFQFull++
		case p.streamEnd || p.wrongPath:
			p.res.Pipe.Stall.FetchStreamEnd++
		}
	}
	p.res.Pipe.Fetch.observe(fetched)
}

// fetchLocality performs the I-side cache work for a correct-path fetch
// and returns the fetch stall in cycles.
func (p *Pipeline) fetchLocality(d *trace.DynInst) int {
	p.res.Act.ICacheAccesses++
	p.res.Cache.IFetches++
	if p.cfg.PerfectCaches {
		return 0
	}
	var l1, l2, tlb bool
	if p.iHier != nil {
		r := p.iHier.AccessI(d.PC)
		l1, l2, tlb = r.L1Miss, r.L2Miss, r.TLBMiss
	} else {
		l1 = d.Flags.Has(trace.FlagL1IMiss)
		l2 = d.Flags.Has(trace.FlagL2IMiss)
		tlb = d.Flags.Has(trace.FlagITLBMiss)
	}
	if l1 {
		p.res.Cache.L1IMisses++
		p.res.Act.L2Accesses++
		if l2 {
			p.res.Cache.L2IMisses++
		}
	}
	if tlb {
		p.res.Cache.ITLBMisses++
	}
	return p.cfg.Hier.FetchStall(l1, l2, tlb)
}

// predictBranch produces the branch outcome for a correct-path branch
// at fetch time (lookup at fetch; state update happens at dispatch).
func (p *Pipeline) predictBranch(d *trace.DynInst) bpred.Outcome {
	if p.cfg.PerfectBpred {
		return bpred.Outcome{Taken: d.Taken}
	}
	p.res.Act.BpredLookups++
	p.res.Act.BTBAccesses++
	if p.pred != nil {
		pr := p.pred.Lookup(d.PC, d.Class)
		return bpred.Classify(pr, d.Class, d.Taken, d.NextPC)
	}
	return bpred.Outcome{
		Taken:         d.Taken,
		Mispredicted:  d.Flags.Has(trace.FlagBrMispredict),
		FetchRedirect: d.Flags.Has(trace.FlagBrFetchRedirect),
	}
}

func (p *Pipeline) ifqPush(e ifqEntry) {
	p.ifq[wrap(p.ifqHead+p.ifqLen, len(p.ifq))] = e
	p.ifqLen++
}

// wrap reduces a ring index in [0, 2n) into [0, n) with a compare
// instead of a division.
func wrap(i, n int) int {
	if i >= n {
		i -= n
	}
	return i
}

// -------------------------------------------------------------- dispatch

func (p *Pipeline) dispatch() {
	moved := uint64(0) // the loop exits by break (see fetch)
	for n := 0; n < p.cfg.DecodeWidth && p.ifqLen > 0 && p.ruuLen < p.cfg.RUUSize; n++ {
		fe := &p.ifq[p.ifqHead]
		d := p.win.At(fe.pos)
		isMem := d.Class.IsMem()
		if isMem && p.lsqLen >= p.cfg.LSQSize {
			break
		}
		p.ifqHead = wrap(p.ifqHead+1, len(p.ifq))
		p.ifqLen--

		slot := int32(wrap(p.ruuHead+p.ruuLen, len(p.ruu)))
		p.ruuLen++
		en := &p.ruu[slot]
		gen := en.gen + 1
		// Field by field rather than a composite literal, which would
		// build a temporary entry and copy it in whole; every field is
		// reset.
		en.inst = *d
		en.pos = fe.pos
		en.completeAt = 0
		en.waiters = en.waiters[:0]
		en.outcome = fe.outcome
		en.waitCount = 0
		en.gen = gen
		en.state = stateWaiting
		en.wrongPath = fe.wrongPath
		en.isMem = isMem
		en.active = true
		en.dL1, en.dL2, en.dTLB = false, false, false
		if isMem {
			p.lsqLen++
		}
		moved++
		p.res.Act.Dispatched++
		p.res.Act.RegReads += uint64(d.NumSrcs)
		if d.Class.HasDest() {
			p.res.Act.RegWrites++
		}

		// Speculative predictor update at dispatch (correct path only).
		if d.Class.IsBranch() && !fe.wrongPath && p.pred != nil && !p.cfg.PerfectBpred {
			p.pred.Update(d.PC, d.Class, d.Taken, d.NextPC)
			p.res.Act.BpredUpdates++
		}

		// Resolve RAW dependencies through the in-flight table; in-order
		// configurations additionally respect the WAW dependency, which
		// renaming would otherwise remove.
		for op := 0; op < int(d.NumSrcs); op++ {
			p.addDep(en, slot, gen, fe.pos, uint64(d.DepDist[op]))
		}
		if p.cfg.InOrder {
			p.addDep(en, slot, gen, fe.pos, uint64(d.WAWDist))
		}
		p.deps[fe.pos%depTableSize] = depRec{pos: fe.pos, slot: slot, gen: gen, used: true}

		if en.waitCount == 0 {
			en.state = stateReady
			p.markReady(slot)
		}
	}
	if moved == 0 {
		switch {
		case p.ifqLen == 0:
			p.res.Pipe.Stall.DispatchEmptyIFQ++
		case p.ruuLen >= p.cfg.RUUSize:
			p.res.Pipe.Stall.DispatchRUUFull++
		default:
			p.res.Pipe.Stall.DispatchLSQFull++
		}
	}
	p.res.Pipe.Dispatch.observe(moved)
}

// addDep records a dependency of the entry at slot on the instruction
// delta positions earlier, if that producer is still in flight.
func (p *Pipeline) addDep(en *ruuEntry, slot int32, gen uint32, pos, delta uint64) {
	if delta == 0 || delta > pos {
		return
	}
	q := pos - delta
	rec := &p.deps[q%depTableSize]
	if !rec.used || rec.pos != q {
		return
	}
	prod := &p.ruu[rec.slot]
	if !prod.active || prod.gen != rec.gen || prod.state == stateDone {
		return
	}
	prod.waiters = append(prod.waiters, waiterRef{slot: slot, gen: gen})
	en.waitCount++
}

// markReady queues a ready entry for out-of-order selection, keeping
// the ready list in age (stream position) order; the in-order issue
// path scans the RUU directly instead.
//
// Stream positions order in-flight entries totally: wrong-path entries
// are strictly younger than every correct-path entry, and positions are
// unique among live entries. Each entry is queued once, and the issue
// pass drops squashed entries before dispatch can reuse their slots, so
// no queued key changes while queued and the list stays sorted.
// Dispatch queues the youngest entry (an append); a wakeup at
// writeback walks back from the young end.
func (p *Pipeline) markReady(slot int32) {
	if p.cfg.InOrder {
		return
	}
	pos := p.ruu[slot].pos
	i := len(p.ready)
	p.ready = append(p.ready, slot)
	for ; i > 0 && p.ruu[p.ready[i-1]].pos > pos; i-- {
		p.ready[i] = p.ready[i-1]
	}
	p.ready[i] = slot
}

// ----------------------------------------------------------------- issue

func (p *Pipeline) issue() {
	var issued uint64
	var sawReady bool
	if p.cfg.InOrder {
		issued, sawReady = p.issueInOrder()
	} else {
		issued, sawReady = p.issueOutOfOrder()
	}
	if issued == 0 && p.ruuLen > 0 {
		if sawReady {
			p.res.Pipe.Stall.IssueFUBusy++
		} else {
			p.res.Pipe.Stall.IssueNoReady++
		}
	}
	p.res.Pipe.Issue.observe(issued)
}

func (p *Pipeline) issueOutOfOrder() (uint64, bool) {
	if len(p.ready) == 0 {
		return 0, false
	}
	// Oldest-first selection: markReady keeps the list in age order.
	issued := uint64(0)
	sawReady := false
	kept := p.ready[:0]
	for _, slot := range p.ready {
		en := &p.ruu[slot]
		if !en.active || en.state != stateReady {
			continue // squashed since enqueued
		}
		sawReady = true
		if issued >= uint64(p.cfg.IssueWidth) {
			kept = append(kept, slot)
			continue
		}
		pool, lat, occ := p.fuFor(en)
		unit := -1
		for u := range pool {
			if pool[u] <= p.cycle {
				unit = u
				break
			}
		}
		if unit < 0 {
			kept = append(kept, slot)
			continue
		}
		pool[unit] = p.cycle + uint64(occ)
		if en.isMem && !en.wrongPath {
			p.accessDCache(en)
		}
		if en.inst.Class == isa.Load {
			lat = p.loadLatency(en)
		}
		if lat < 1 {
			lat = 1
		}
		en.state = stateIssued
		en.completeAt = p.cycle + uint64(lat)
		p.scheduleCompletion(slot, en)
		issued++
		p.res.Act.Issued++
		p.countFUOp(en.inst.Class)
	}
	p.ready = kept
	return issued, sawReady
}

// issueInOrder issues strictly in program order: the oldest un-issued
// instruction blocks everything younger until it issues. It reports
// how many instructions issued and whether any instruction was ready
// (so a zero-issue cycle can be attributed to operands vs units).
func (p *Pipeline) issueInOrder() (uint64, bool) {
	issued := uint64(0)
	for i := 0; i < p.ruuLen && issued < uint64(p.cfg.IssueWidth); i++ {
		slot := int32(wrap(p.ruuHead+i, len(p.ruu)))
		en := &p.ruu[slot]
		switch en.state {
		case stateIssued, stateDone:
			continue
		case stateWaiting:
			return issued, false
		}
		pool, lat, occ := p.fuFor(en)
		unit := -1
		for u := range pool {
			if pool[u] <= p.cycle {
				unit = u
				break
			}
		}
		if unit < 0 {
			return issued, true // structural hazard stalls issue in order
		}
		pool[unit] = p.cycle + uint64(occ)
		if en.isMem && !en.wrongPath {
			p.accessDCache(en)
		}
		if en.inst.Class == isa.Load {
			lat = p.loadLatency(en)
		}
		if lat < 1 {
			lat = 1
		}
		en.state = stateIssued
		en.completeAt = p.cycle + uint64(lat)
		p.scheduleCompletion(slot, en)
		issued++
		p.res.Act.Issued++
		p.countFUOp(en.inst.Class)
	}
	// Reaching here with zero issues means every in-flight entry was
	// already executing or complete — nothing was ready.
	return issued, false
}

// fuFor maps an entry to its functional-unit pool, result latency and
// unit occupancy (latency for non-pipelined units, 1 otherwise).
func (p *Pipeline) fuFor(en *ruuEntry) (pool []uint64, lat, occ int) {
	c := en.inst.Class
	lat = c.Latency()
	occ = 1
	switch c {
	case isa.Load, isa.Store:
		pool = p.fuLS
	case isa.IntBranch, isa.IndirBranch, isa.IntALU:
		pool = p.fuIntALU
	case isa.FPALU, isa.FPBranch:
		pool = p.fuFPAdd
	case isa.IntMul:
		pool = p.fuIntMul
	case isa.IntDiv:
		pool = p.fuIntMul
		occ = lat
	case isa.FPMul:
		pool = p.fuFPMul
	case isa.FPDiv, isa.FPSqrt:
		pool = p.fuFPMul
		occ = lat
	default:
		pool = p.fuIntALU
	}
	return pool, lat, occ
}

func (p *Pipeline) countFUOp(c isa.Class) {
	switch {
	case c == isa.Load:
		p.res.Act.LoadOps++
	case c == isa.Store:
		p.res.Act.StoreOps++
	case c == isa.IntMul || c == isa.IntDiv:
		p.res.Act.IntMulOps++
	case c.IsFP():
		p.res.Act.FPOps++
	default:
		p.res.Act.IntALUOps++
	}
}

// accessDCache performs the D-side cache bookkeeping for a correct-path
// memory operation at issue time. In live mode it also mutates the
// hierarchy; stores access the cache but never stall the pipeline
// (write buffering).
func (p *Pipeline) accessDCache(en *ruuEntry) {
	p.res.Act.DCacheAccesses++
	p.res.Cache.DAccesses++
	if p.cfg.PerfectCaches {
		return
	}
	var l1, l2, tlb bool
	if p.dHier != nil {
		r := p.dHier.AccessD(en.inst.EffAddr)
		l1, l2, tlb = r.L1Miss, r.L2Miss, r.TLBMiss
	} else {
		l1 = en.inst.Flags.Has(trace.FlagL1DMiss)
		l2 = en.inst.Flags.Has(trace.FlagL2DMiss)
		tlb = en.inst.Flags.Has(trace.FlagDTLBMiss)
	}
	if l1 {
		p.res.Cache.L1DMisses++
		p.res.Act.L2Accesses++
		if l2 {
			p.res.Cache.L2DMisses++
		}
	}
	if tlb {
		p.res.Cache.DTLBMisses++
	}
	en.dL1, en.dL2, en.dTLB = l1, l2, tlb
}

// loadLatency returns the access latency of a load given its locality
// events; wrong-path loads are charged an L1 hit (they do not touch the
// caches, per §2.3).
func (p *Pipeline) loadLatency(en *ruuEntry) int {
	if p.cfg.PerfectCaches || en.wrongPath {
		return p.cfg.Hier.L1D.Latency
	}
	return p.cfg.Hier.LoadLatency(en.dL1, en.dL2, en.dTLB)
}

// ------------------------------------------------------------- writeback

func (p *Pipeline) writeback() {
	idx := p.cycle & p.wheelMask
	completing := p.wheel[idx]
	if len(completing) == 0 {
		return
	}
	p.wheel[idx] = completing[:0]
	for _, ref := range completing {
		en := &p.ruu[ref.slot]
		// Entries squashed (and possibly reissued) since scheduling are
		// filtered by the generation check.
		if !en.active || en.gen != ref.gen || en.state != stateIssued || en.completeAt != p.cycle {
			continue
		}
		en.state = stateDone
		for _, w := range en.waiters {
			c := &p.ruu[w.slot]
			if !c.active || c.gen != w.gen || c.state != stateWaiting {
				continue
			}
			c.waitCount--
			if c.waitCount == 0 {
				c.state = stateReady
				p.markReady(w.slot)
			}
		}
		en.waiters = en.waiters[:0]

		if en.inst.Class.IsBranch() && !en.wrongPath && en.outcome.Mispredicted {
			// At most one unresolved correct-path misprediction can be
			// in flight, so a single recovery per cycle suffices; any
			// same-cycle completions of now-squashed entries are
			// filtered above.
			p.recover(ref.slot)
		}
	}
}

// recover squashes everything younger than the mispredicted branch in
// the RUU slot branchSlot, clears the IFQ, and redirects fetch to the
// correct path after the misprediction penalty.
func (p *Pipeline) recover(branchSlot int32) {
	branch := &p.ruu[branchSlot]
	for p.ruuLen > 0 {
		slot := int32(wrap(p.ruuHead+p.ruuLen-1, len(p.ruu)))
		if slot == branchSlot {
			break
		}
		en := &p.ruu[slot]
		if en.isMem {
			p.lsqLen--
		}
		en.active = false
		en.gen++
		p.ruuLen--
	}
	p.ifqHead, p.ifqLen = 0, 0
	p.fetchPos = branch.pos + 1
	p.wrongPath = false
	p.streamEnd = false
	resume := p.cycle + 1 + uint64(p.cfg.MispredictExtra)
	if resume > p.fetchResume {
		p.fetchResume = resume
	}
}

// ---------------------------------------------------------------- commit

func (p *Pipeline) commit() {
	committed := uint64(0) // the loop exits by break (see fetch)
	for n := 0; n < p.cfg.CommitWidth && p.ruuLen > 0; n++ {
		en := &p.ruu[p.ruuHead]
		if en.state != stateDone {
			break
		}
		if en.wrongPath {
			panic("cpu: wrong-path instruction reached commit")
		}
		if en.isMem {
			p.lsqLen--
		}
		if en.inst.Class.IsBranch() {
			p.res.Branch.Branches++
			if en.inst.Taken {
				p.res.Branch.Taken++
			}
			if en.outcome.Mispredicted {
				p.res.Branch.Mispredicted++
			}
			if en.outcome.FetchRedirect {
				p.res.Branch.FetchRedirect++
			}
		}
		en.active = false
		en.gen++
		p.ruuHead = wrap(p.ruuHead+1, len(p.ruu))
		p.ruuLen--
		committed++
		p.res.Instructions++
		p.res.Act.Committed++
		p.win.Release(en.pos + 1)
		if p.warmLeft > 0 {
			p.warmLeft--
			if p.warmLeft == 0 {
				// End of warmup: discard the statistics accumulated so
				// far; microarchitectural state stays warm.
				p.res = Result{}
				p.occRUUSum, p.occLSQSum, p.occIFQSum = 0, 0, 0
				p.cycleBase = p.cycle
			}
		}
	}
	if committed == 0 {
		if p.ruuLen == 0 {
			p.res.Pipe.Stall.CommitEmptyRUU++
		} else {
			p.res.Pipe.Stall.CommitOldestNotDone++
		}
	}
	p.res.Pipe.Commit.observe(committed)
}
