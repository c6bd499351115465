package sfg

import (
	"cmp"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/isa"
	"repro/internal/stats"
)

// Wire formats: flat, fully exported mirrors of the graph structures.
// The node/edge indexes and adjacency lists are rebuilt on load.

type nodeWire struct {
	HistN uint8
	Hist  [MaxK]int32
	Occ   uint64
}

// depWire holds one operand's dependency histogram in the stats sparse
// encoding (Histogram.AppendSparse); only operands that observed
// dependencies are serialised. Op == isa.MaxSrcOperands encodes the WAW
// (output-dependency) histogram. Version 1 named the field H and
// nested a gob stream per histogram; gob skips fields the receiver does
// not know, so a version 1 payload decodes far enough to be refused by
// the version check.
type depWire struct {
	Op   int8
	Hist []byte
}

const wawOp = int8(isa.MaxSrcOperands)

type instWire struct {
	Class   uint8
	NumSrcs uint8
	Dep     []depWire

	L1IMiss, L2IMiss, ITLBMiss uint64
	L1DMiss, L2DMiss, DTLBMiss uint64

	// Addr is nil for non-memory slots; gob omits nil pointer fields
	// (they are zero values), unlike nil array elements.
	Addr *addrWire
}

// addrWire mirrors AddrProfile with the stride table as pairs sorted by
// stride, so equal profiles encode to equal bytes (gob writes map
// entries in iteration order). The field is not called Strides: version
// 1 sent a map under that name, and gob refuses a same-named field of
// another type before the version check could run.
type addrWire struct {
	Count, First, Min, Max uint64
	StridePairs            []stridePair
	Overflow               uint64
}

type stridePair struct {
	Delta int64
	N     uint64
}

type edgeWire struct {
	From, To, Block int32
	Count           uint64
	Insts           []instWire

	BrCount, BrTaken, BrMispredict, BrRedirect uint64
	Fetches, L1IMiss, L2IMiss, ITLBMiss        uint64
	Loads, L1DMiss, L2DMiss, DTLBMiss          uint64
	Stores                                     uint64
}

type graphWire struct {
	Version           int
	K                 int
	TotalInstructions uint64
	TotalBlocks       uint64
	Nodes             []nodeWire
	Edges             []edgeWire
}

// wireVersion 2 carries histograms in the one-pass sparse encoding and
// stride tables as sorted pairs; version 1 payloads are refused.
const wireVersion = 2

// ErrUnsupportedVersion is wrapped by Load's error for a payload of
// another wire version: a file or a peer from another build, which no
// retry can make readable.
var ErrUnsupportedVersion = errors.New("sfg: unsupported profile version")

// Save serialises the graph (gob encoding) so a statistical profile can
// be measured once and reused across many design-space simulations.
// The bytes are a function of the graph alone: Save, Load, Save
// reproduces them exactly.
func (g *Graph) Save(w io.Writer) error {
	gw := graphWire{
		Version:           wireVersion,
		K:                 g.K,
		TotalInstructions: g.TotalInstructions,
		TotalBlocks:       g.TotalBlocks,
	}
	for _, n := range g.Nodes {
		gw.Nodes = append(gw.Nodes, nodeWire{HistN: n.Hist.n, Hist: n.Hist.b, Occ: n.Occ})
	}
	// Every histogram encoding is a capped window of one growing
	// buffer: appends land past each window, and a reallocation leaves
	// the earlier windows on the old, unchanged array.
	var hbuf []byte
	appendDep := func(iw *instWire, op int8, h *stats.Histogram) error {
		if h.Max > stats.MaxBound {
			// Load would refuse it: fail here, not on every later load.
			return fmt.Errorf("sfg: histogram bound %d exceeds %d", h.Max, stats.MaxBound)
		}
		start := len(hbuf)
		hbuf = h.AppendSparse(hbuf)
		iw.Dep = append(iw.Dep, depWire{Op: op, Hist: hbuf[start:len(hbuf):len(hbuf)]})
		return nil
	}
	for _, e := range g.Edges {
		ew := edgeWire{
			From: e.From, To: e.To, Block: e.Block, Count: e.Count,
			BrCount: e.BrCount, BrTaken: e.BrTaken,
			BrMispredict: e.BrMispredict, BrRedirect: e.BrRedirect,
			Fetches: e.Fetches, L1IMiss: e.L1IMiss, L2IMiss: e.L2IMiss, ITLBMiss: e.ITLBMiss,
			Loads: e.Loads, L1DMiss: e.L1DMiss, L2DMiss: e.L2DMiss, DTLBMiss: e.DTLBMiss,
			Stores: e.Stores,
		}
		for i := range e.Insts {
			ip := &e.Insts[i]
			iw := instWire{
				Class: uint8(ip.Class), NumSrcs: ip.NumSrcs,
				L1IMiss: ip.L1IMiss, L2IMiss: ip.L2IMiss, ITLBMiss: ip.ITLBMiss,
				L1DMiss: ip.L1DMiss, L2DMiss: ip.L2DMiss, DTLBMiss: ip.DTLBMiss,
				Addr: ip.Addr.wire(),
			}
			for op, h := range ip.Dep {
				if h != nil {
					if err := appendDep(&iw, int8(op), h); err != nil {
						return err
					}
				}
			}
			if ip.WAW != nil {
				if err := appendDep(&iw, wawOp, ip.WAW); err != nil {
					return err
				}
			}
			ew.Insts = append(ew.Insts, iw)
		}
		gw.Edges = append(gw.Edges, ew)
	}
	return gob.NewEncoder(w).Encode(gw)
}

// Load deserialises a graph written by Save, rebuilding indexes and
// adjacency, and validates the result. Any malformed input, from disk or
// from a peer, is an error and never a panic.
func Load(r io.Reader) (*Graph, error) {
	var gw graphWire
	if err := gob.NewDecoder(r).Decode(&gw); err != nil {
		return nil, fmt.Errorf("sfg: decoding profile: %w", err)
	}
	if gw.Version != wireVersion {
		return nil, fmt.Errorf("%w %d", ErrUnsupportedVersion, gw.Version)
	}
	if gw.K < 0 || gw.K > MaxK {
		return nil, fmt.Errorf("sfg: order %d outside [0,%d]", gw.K, MaxK)
	}
	g := NewGraph(gw.K)
	g.TotalInstructions = gw.TotalInstructions
	g.TotalBlocks = gw.TotalBlocks
	g.Nodes = make([]*Node, 0, len(gw.Nodes))
	for i, nw := range gw.Nodes {
		n := &Node{ID: int32(i), Hist: histKey{n: nw.HistN, b: nw.Hist}, Occ: nw.Occ}
		g.Nodes = append(g.Nodes, n)
		g.nodeIdx[n.Hist] = n.ID
	}
	g.Edges = make([]*Edge, 0, len(gw.Edges))
	for i, ew := range gw.Edges {
		if ew.From < 0 || int(ew.From) >= len(g.Nodes) || ew.To < 0 || int(ew.To) >= len(g.Nodes) {
			return nil, fmt.Errorf("sfg: edge %d endpoints out of range", i)
		}
		e := &Edge{
			ID: int32(i), From: ew.From, To: ew.To, Block: ew.Block, Count: ew.Count,
			BrCount: ew.BrCount, BrTaken: ew.BrTaken,
			BrMispredict: ew.BrMispredict, BrRedirect: ew.BrRedirect,
			Fetches: ew.Fetches, L1IMiss: ew.L1IMiss, L2IMiss: ew.L2IMiss, ITLBMiss: ew.ITLBMiss,
			Loads: ew.Loads, L1DMiss: ew.L1DMiss, L2DMiss: ew.L2DMiss, DTLBMiss: ew.DTLBMiss,
			Stores: ew.Stores,
			Insts:  make([]InstProfile, len(ew.Insts)),
		}
		for j, iw := range ew.Insts {
			if isa.Class(iw.Class) >= isa.NumClasses || iw.NumSrcs > isa.MaxSrcOperands {
				return nil, fmt.Errorf("sfg: edge %d inst %d has class %d with %d sources", i, j, iw.Class, iw.NumSrcs)
			}
			addr, err := iw.Addr.profile()
			if err != nil {
				return nil, fmt.Errorf("sfg: edge %d inst %d: %w", i, j, err)
			}
			ip := &e.Insts[j]
			*ip = InstProfile{
				Class: isa.Class(iw.Class), NumSrcs: iw.NumSrcs,
				L1IMiss: iw.L1IMiss, L2IMiss: iw.L2IMiss, ITLBMiss: iw.ITLBMiss,
				L1DMiss: iw.L1DMiss, L2DMiss: iw.L2DMiss, DTLBMiss: iw.DTLBMiss,
				Addr: addr,
			}
			for _, dw := range iw.Dep {
				if dw.Op < 0 || dw.Op > wawOp {
					return nil, fmt.Errorf("sfg: edge %d inst %d has corrupt dependency record", i, j)
				}
				h, err := stats.DecodeSparse(dw.Hist)
				if err != nil {
					return nil, fmt.Errorf("sfg: edge %d inst %d operand %d: %w", i, j, dw.Op, err)
				}
				if dw.Op == wawOp {
					ip.WAW = h
				} else {
					ip.Dep[dw.Op] = h
				}
			}
		}
		g.Edges = append(g.Edges, e)
		g.edgeIdx[edgeKey{from: e.From, block: e.Block}] = e.ID
		g.Nodes[e.From].Out = append(g.Nodes[e.From].Out, e.ID)
		g.Nodes[e.To].In = append(g.Nodes[e.To].In, e.ID)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("sfg: loaded profile invalid: %w", err)
	}
	return g, nil
}

// wire renders an address profile for Save; nil stays nil.
func (a *AddrProfile) wire() *addrWire {
	if a == nil {
		return nil
	}
	w := &addrWire{Count: a.Count, First: a.First, Min: a.Min, Max: a.Max, Overflow: a.Overflow}
	if len(a.Strides) > 0 {
		w.StridePairs = make([]stridePair, 0, len(a.Strides))
		for d, n := range a.Strides {
			w.StridePairs = append(w.StridePairs, stridePair{Delta: d, N: n})
		}
		slices.SortFunc(w.StridePairs, func(x, y stridePair) int { return cmp.Compare(x.Delta, y.Delta) })
	}
	return w
}

// profile rebuilds the address profile Save wrote, rejecting stride
// tables that are unsorted, repeat a stride, hold a zero count or
// exceed MaxDistinctStrides.
func (w *addrWire) profile() (*AddrProfile, error) {
	if w == nil {
		return nil, nil
	}
	a := &AddrProfile{Count: w.Count, First: w.First, Min: w.Min, Max: w.Max, Overflow: w.Overflow}
	if len(w.StridePairs) > MaxDistinctStrides {
		return nil, fmt.Errorf("sfg: %d strides exceed the table bound %d", len(w.StridePairs), MaxDistinctStrides)
	}
	if len(w.StridePairs) > 0 {
		a.Strides = make(map[int64]uint64, len(w.StridePairs))
	}
	for i, p := range w.StridePairs {
		if i > 0 && p.Delta <= w.StridePairs[i-1].Delta {
			return nil, fmt.Errorf("sfg: stride %d out of order", p.Delta)
		}
		if p.N == 0 {
			return nil, fmt.Errorf("sfg: stride %d has zero count", p.Delta)
		}
		a.Strides[p.Delta] = p.N
	}
	return a, nil
}
