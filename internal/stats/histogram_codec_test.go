package stats

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

func uvarints(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func TestHistogramSparseRoundTrip(t *testing.T) {
	h := NewHistogram(MaxDependencyDistance)
	h.AddN(1, 7)
	h.AddN(3, 2)
	h.AddN(512, 1<<40)
	h.Add(900) // clamps to 512
	enc := h.AppendSparse(nil)
	if want := uvarints(512, 3, 1, 7, 2, 2, 509, 1<<40+1); !bytes.Equal(enc, want) {
		t.Fatalf("encoding = %x, want %x", enc, want)
	}
	got, err := DecodeSparse(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Max != h.Max || got.Total() != h.Total() {
		t.Fatalf("decoded max %d total %d, want %d %d", got.Max, got.Total(), h.Max, h.Total())
	}
	for v := 1; v <= h.Max; v++ {
		if got.Count(v) != h.Count(v) {
			t.Fatalf("Count(%d) = %d, want %d", v, got.Count(v), h.Count(v))
		}
	}
	if again := got.AppendSparse(nil); !bytes.Equal(again, enc) {
		t.Fatalf("re-encoding differs: %x vs %x", again, enc)
	}

	empty, err := DecodeSparse(NewHistogram(4).AppendSparse(nil))
	if err != nil || empty.Max != 4 || empty.Total() != 0 {
		t.Fatalf("empty histogram: %+v, %v", empty, err)
	}
}

// TestHistogramDecodeSparseRejects pins that every malformed encoding
// is an error: the decoder is fed bytes from disk and from peers.
func TestHistogramDecodeSparseRejects(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "truncated"},
		{"max zero", uvarints(0, 0), "bound 0"},
		{"max above cap", uvarints(MaxBound+1, 0), "outside"},
		{"max huge", uvarints(math.MaxUint64, 0), "outside"},
		{"more buckets than values", uvarints(4, 5), "exceed"},
		{"value zero", uvarints(8, 1, 0, 3), "not ascending"},
		{"value repeats", uvarints(8, 2, 2, 1, 0, 1), "not ascending"},
		{"value above max", uvarints(8, 1, 9, 1), "not ascending"},
		{"delta wraps", uvarints(8, 2, 4, 1, math.MaxUint64-2, 1), "not ascending"},
		{"zero count", uvarints(8, 1, 2, 0), "zero count"},
		{"total overflows", uvarints(8, 2, 1, math.MaxUint64, 1, 1), "overflows"},
		{"missing pair", uvarints(8, 2, 1, 1), "truncated"},
		{"missing count", uvarints(8, 1, 1), "truncated"},
		{"trailing bytes", append(uvarints(8, 1, 1, 1), 0), "trailing"},
		{"trailing after empty", append(uvarints(8, 0), 1), "trailing"},
		{"overlong varint", bytes.Repeat([]byte{0xff}, 11), "truncated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, err := DecodeSparse(tc.data)
			if err == nil {
				t.Fatalf("accepted %x as %+v", tc.data, h)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// FuzzHistogramDecodeSparse: arbitrary bytes never panic, and whatever
// decodes re-encodes to a canonical form that decodes to the same
// histogram.
func FuzzHistogramDecodeSparse(f *testing.F) {
	f.Add(uvarints(512, 2, 1, 9, 4, 1))
	f.Add(uvarints(8, 0))
	f.Add(uvarints(8, 1, 0, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeSparse(data)
		if err != nil {
			return
		}
		enc := h.AppendSparse(nil)
		h2, err := DecodeSparse(enc)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !bytes.Equal(h2.AppendSparse(nil), enc) || h2.Total() != h.Total() {
			t.Fatal("canonical encoding is not a fixed point")
		}
		if h.Total() > 0 {
			h.Freeze()
			_ = h.Sample(0.5)
		}
	})
}
