// Package sfgtest builds profile payloads by hand, field by field, for
// tests of every layer that parses them (sfg.Load, the durable store's
// envelope, the cluster's offer handler). A Save'd graph is always well
// formed; these builders also make the malformed and the outdated ones a
// damaged file or a hostile or older peer could send.
//
// The types mirror the sfg wire types field for field. gob matches
// fields by name, not by type name, so what they encode decodes into
// sfg's own types exactly as a payload written by Save would.
package sfgtest

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"

	"repro/internal/isa"
)

// Graph mirrors the version 2 profile wire format.
type Graph struct {
	Version           int
	K                 int
	TotalInstructions uint64
	TotalBlocks       uint64
	Nodes             []Node
	Edges             []Edge
}

// Node mirrors one wire node; Hist has sfg.MaxK entries.
type Node struct {
	HistN uint8
	Hist  [4]int32
	Occ   uint64
}

// Edge mirrors one wire edge (the locality counters are left out; gob
// treats absent fields as zero).
type Edge struct {
	From, To, Block int32
	Count           uint64
	Insts           []Inst
}

// Inst mirrors one wire instruction slot.
type Inst struct {
	Class   uint8
	NumSrcs uint8
	Dep     []Dep
}

// Dep mirrors one wire dependency histogram: Hist holds the stats
// sparse encoding.
type Dep struct {
	Op   int8
	Hist []byte
}

// Hist returns the sparse histogram encoding of the given uvarints:
// Max, the bucket count, then (value delta, count) pairs. Any sequence
// can be written, valid or not.
func Hist(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// Minimal returns the smallest valid version 2 profile: order 0, one
// node, one self-edge whose one integer ALU slot carries hist as operand 0's
// dependency histogram. With a valid hist, such as Hist(512, 1, 3, 1),
// sfg.Load accepts its Bytes.
func Minimal(hist []byte) Graph {
	return Graph{
		Version: 2, K: 0, TotalInstructions: 1, TotalBlocks: 1,
		Nodes: []Node{{Hist: [4]int32{-1, -1, -1, -1}, Occ: 1}},
		Edges: []Edge{{From: 0, To: 0, Block: 0, Count: 1,
			Insts: []Inst{{Class: uint8(isa.IntALU), NumSrcs: 1, Dep: []Dep{{Op: 0, Hist: hist}}}}}},
	}
}

// Bytes gob-encodes the graph as sfg.Graph.Save would.
func (g Graph) Bytes() []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(g); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// V1Hist is a version 1 dependency histogram: a nested gob stream of
// its own per histogram. Fields are written as given, so the malformed
// histograms that crashed version 1 decoding can be built: a value of
// 0, Values and Counts of different lengths, a negative Max.
type V1Hist struct {
	Max    int
	Values []int32
	Counts []uint64
}

// GobEncode writes the histogram the way version 1 did.
func (h *V1Hist) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(struct {
		Max    int
		Values []int32
		Counts []uint64
	}{h.Max, h.Values, h.Counts})
	return buf.Bytes(), err
}

// V1Payload returns Minimal's profile in wire version 1, with h as its
// one histogram.
func V1Payload(h V1Hist) []byte {
	type dep struct {
		Op int8
		H  *V1Hist
	}
	type inst struct {
		Class   uint8
		NumSrcs uint8
		Dep     []dep
	}
	type edge struct {
		From, To, Block int32
		Count           uint64
		Insts           []inst
	}
	m := Minimal(nil)
	g := struct {
		Version           int
		K                 int
		TotalInstructions uint64
		TotalBlocks       uint64
		Nodes             []Node
		Edges             []edge
	}{1, m.K, m.TotalInstructions, m.TotalBlocks, m.Nodes,
		[]edge{{Count: 1, Insts: []inst{{Class: uint8(isa.IntALU), NumSrcs: 1, Dep: []dep{{H: &h}}}}}}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(g); err != nil {
		panic(err)
	}
	return buf.Bytes()
}
