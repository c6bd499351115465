package cache

// HierarchyConfig bundles the full memory-hierarchy configuration.
// Defaults (DefaultConfig) follow Table 2 of the paper.
type HierarchyConfig struct {
	L1I  Config
	L1D  Config
	L2   Config // unified; instruction- and data-induced misses split in accounting
	ITLB Config // BlockBytes is the page size
	DTLB Config

	MemLatency     int // L2-miss round trip to main memory (cycles)
	TLBMissLatency int // TLB refill penalty (cycles)
}

// DefaultConfig returns the paper's Table 2 hierarchy: 8 KB 2-way L1I
// (32 B lines, 1 cycle), 16 KB 4-way L1D (32 B lines, 2 cycles), 1 MB
// 4-way unified L2 (64 B lines, 20 cycles), 32-entry 8-way I/D-TLBs
// with 4 KB pages, 150-cycle memory round trip.
func DefaultConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:            Config{SizeBytes: 8 << 10, Assoc: 2, BlockBytes: 32, Latency: 1},
		L1D:            Config{SizeBytes: 16 << 10, Assoc: 4, BlockBytes: 32, Latency: 2},
		L2:             Config{SizeBytes: 1 << 20, Assoc: 4, BlockBytes: 64, Latency: 20},
		ITLB:           Config{SizeBytes: 32 * 4096, Assoc: 8, BlockBytes: 4096, Latency: 1},
		DTLB:           Config{SizeBytes: 32 * 4096, Assoc: 8, BlockBytes: 4096, Latency: 1},
		MemLatency:     150,
		TLBMissLatency: 30,
	}
}

// Validate checks every level.
func (hc HierarchyConfig) Validate() error {
	for _, c := range []Config{hc.L1I, hc.L1D, hc.L2, hc.ITLB, hc.DTLB} {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Scale returns a copy of hc with the L1I, L1D and L2 capacities
// multiplied by factor (used by the Table 4 cache-size sweep). Factor
// must be a power-of-two multiple or divisor so geometries stay valid.
func (hc HierarchyConfig) Scale(factor float64) HierarchyConfig {
	scale := func(c Config) Config {
		c.SizeBytes = int(float64(c.SizeBytes) * factor)
		if c.SizeBytes < c.Assoc*c.BlockBytes {
			c.SizeBytes = c.Assoc * c.BlockBytes
		}
		return c
	}
	hc.L1I = scale(hc.L1I)
	hc.L1D = scale(hc.L1D)
	hc.L2 = scale(hc.L2)
	return hc
}

// IResult describes the locality events of one instruction fetch.
type IResult struct {
	L1Miss  bool
	L2Miss  bool
	TLBMiss bool
}

// DResult describes the locality events of one data access.
type DResult struct {
	L1Miss  bool
	L2Miss  bool
	TLBMiss bool
}

// Hierarchy is a live memory hierarchy: the execution-driven simulator
// and the statistical profiler both drive one instance each.
type Hierarchy struct {
	cfg  HierarchyConfig
	L1I  *Cache
	L1D  *Cache
	L2   *Cache
	ITLB *Cache
	DTLB *Cache

	// Split accounting of unified-L2 misses (§2.1.2 footnote 1).
	L2IAccesses, L2IMisses uint64
	L2DAccesses, L2DMisses uint64

	// Same-line fast path: a repeat access to the line (and therefore
	// page) just accessed on the same side is a guaranteed L1+TLB hit —
	// the side's caches are touched by no other call, and re-touching
	// the MRU way cannot change LRU order — so the set scans are
	// skipped. Access counters are still advanced, keeping every
	// observable statistic identical. The shift uses the side's smallest
	// block size so line equality implies page equality. Stored as
	// line+1 so zero means "no previous access".
	iMemo, dMemo   uint64
	iShift, dShift uint

	// Same-page fast path for the TLBs alone: a new line inside the page
	// just accessed on the same side is still a guaranteed TLB hit, by
	// the identical MRU-retouch argument (the side's TLB is touched by no
	// other call, so the page stayed most recently used). Pages change
	// ~2 orders of magnitude less often than lines, so this skips almost
	// every 8-way TLB set scan. Stored as page+1 so zero means "none".
	iPageMemo, dPageMemo   uint64
	iPageShift, dPageShift uint
}

func memoShift(l1, tlb Config) uint {
	block := l1.BlockBytes
	if tlb.BlockBytes < block {
		block = tlb.BlockBytes
	}
	shift := uint(0)
	for 1<<shift != block {
		shift++
	}
	return shift
}

// NewHierarchy builds a hierarchy; cfg must validate.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Hierarchy{
		cfg:        cfg,
		L1I:        New(cfg.L1I),
		L1D:        New(cfg.L1D),
		L2:         New(cfg.L2),
		ITLB:       New(cfg.ITLB),
		DTLB:       New(cfg.DTLB),
		iShift:     memoShift(cfg.L1I, cfg.ITLB),
		dShift:     memoShift(cfg.L1D, cfg.DTLB),
		iPageShift: memoShift(cfg.ITLB, cfg.ITLB),
		dPageShift: memoShift(cfg.DTLB, cfg.DTLB),
	}
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// AccessI performs an instruction fetch at pc.
func (h *Hierarchy) AccessI(pc uint64) IResult {
	var r IResult
	if line := pc>>h.iShift + 1; line == h.iMemo {
		h.ITLB.Accesses++
		h.L1I.Accesses++
		return r
	} else {
		h.iMemo = line
	}
	if page := pc>>h.iPageShift + 1; page == h.iPageMemo {
		h.ITLB.Accesses++
	} else {
		h.iPageMemo = page
		r.TLBMiss = !h.ITLB.Access(pc)
	}
	if !h.L1I.Access(pc) {
		r.L1Miss = true
		h.L2IAccesses++
		if !h.L2.Access(pc) {
			r.L2Miss = true
			h.L2IMisses++
		}
	}
	return r
}

// AccessD performs a data access at addr. Stores allocate like loads
// (write-allocate), matching sim-cache's default.
func (h *Hierarchy) AccessD(addr uint64) DResult {
	var r DResult
	if line := addr>>h.dShift + 1; line == h.dMemo {
		h.DTLB.Accesses++
		h.L1D.Accesses++
		return r
	} else {
		h.dMemo = line
	}
	if page := addr>>h.dPageShift + 1; page == h.dPageMemo {
		h.DTLB.Accesses++
	} else {
		h.dPageMemo = page
		r.TLBMiss = !h.DTLB.Access(addr)
	}
	if !h.L1D.Access(addr) {
		r.L1Miss = true
		h.L2DAccesses++
		if !h.L2.Access(addr) {
			r.L2Miss = true
			h.L2DMisses++
		}
	}
	return r
}

// LoadLatency converts a data-access outcome into an access latency in
// cycles, the same mapping used for pre-assigned synthetic-trace flags
// (§2.3: "for example, in case of an L2 miss, the access latency to
// main memory is assigned").
func (hc *HierarchyConfig) LoadLatency(l1Miss, l2Miss, tlbMiss bool) int {
	lat := hc.L1D.Latency
	if l1Miss {
		lat = hc.L2.Latency
		if l2Miss {
			lat = hc.MemLatency
		}
	}
	if tlbMiss {
		lat += hc.TLBMissLatency
	}
	return lat
}

// FetchStall converts an instruction-fetch outcome into the number of
// cycles the fetch engine stalls (§2.3: on an I-cache miss the fetch
// engine stops fetching for a number of cycles).
func (hc *HierarchyConfig) FetchStall(l1Miss, l2Miss, tlbMiss bool) int {
	stall := 0
	if l1Miss {
		stall = hc.L2.Latency
		if l2Miss {
			stall = hc.MemLatency
		}
	}
	if tlbMiss {
		stall += hc.TLBMissLatency
	}
	return stall
}

// Reset clears all levels and counters.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
	h.ITLB.Reset()
	h.DTLB.Reset()
	h.L2IAccesses, h.L2IMisses = 0, 0
	h.L2DAccesses, h.L2DMisses = 0, 0
	h.iMemo, h.dMemo = 0, 0
	h.iPageMemo, h.dPageMemo = 0, 0
}
