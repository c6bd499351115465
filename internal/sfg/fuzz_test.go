package sfg

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/program"
	"repro/internal/trace"
)

// FuzzSaveLoadRoundTrip guards the gob wire format against silent
// schema drift: once graphs live server-side in the statsimd cache and
// on disk via `statsim profile`, a field that stops (de)serialising
// cleanly would corrupt every consumer downstream. The fuzzer varies
// the profile shape (order, workload seed, stream length) and checks
// that Save -> Load -> Save reproduces the bytes exactly (the encoding
// is canonical, so a content digest of it identifies the graph), that
// the reloaded graph is structurally consistent with the original, and
// that a second decode is semantically identical to the first.
func FuzzSaveLoadRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint64(3), uint16(3000))
	f.Add(uint8(0), uint64(7), uint16(500))
	f.Add(uint8(2), uint64(0xfeed), uint16(8000))
	f.Add(uint8(4), uint64(1), uint16(1200))
	f.Fuzz(func(t *testing.T, k uint8, seed uint64, n uint16) {
		k %= MaxK + 1
		if n < 100 {
			n = 100
		}
		prog := program.MustGenerate(program.Personality{
			Name: "fuzz", Seed: seed | 1, TargetBlocks: 40,
		})
		src := &trace.LimitSource{Src: program.NewExecutor(prog, 1), N: uint64(n)}
		g, err := Profile(src, defaultOpts(int(k)))
		if err != nil {
			t.Skip() // degenerate stream, not a serialisation problem
		}

		var buf1 bytes.Buffer
		if err := g.Save(&buf1); err != nil {
			t.Fatalf("save: %v", err)
		}
		g1, err := Load(bytes.NewReader(buf1.Bytes()))
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		if g1.K != g.K || g1.NumNodes() != g.NumNodes() || g1.NumEdges() != g.NumEdges() ||
			g1.TotalInstructions != g.TotalInstructions || g1.TotalBlocks != g.TotalBlocks {
			t.Fatal("loaded graph shape diverges from original")
		}

		var buf2 bytes.Buffer
		if err := g1.Save(&buf2); err != nil {
			t.Fatalf("re-save: %v", err)
		}
		if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
			t.Fatalf("Save -> Load -> Save changed the bytes (%d vs %d)", buf1.Len(), buf2.Len())
		}
		g2, err := Load(bytes.NewReader(buf2.Bytes()))
		if err != nil {
			t.Fatalf("re-load: %v", err)
		}
		// One decode is a fixed point: everything the wire format
		// carries survived the first trip, so the second must reproduce
		// it exactly (including rebuilt indexes and adjacency).
		if !reflect.DeepEqual(g1, g2) {
			t.Fatal("second round trip diverges: wire format drops or mutates state")
		}
	})
}
