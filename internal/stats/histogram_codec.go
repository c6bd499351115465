package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// MaxBound caps the bound a decoded histogram may declare. It sits far
// above MaxDependencyDistance and bounds the dense bucket array a
// decoded histogram allocates (32 KiB), so a hostile payload cannot
// declare a multi-gigabyte histogram in a few bytes.
const MaxBound = 1 << 12

// AppendSparse appends the histogram's wire form to b and returns the
// extended slice: uvarint Max, uvarint number of non-empty buckets,
// then one (value delta, count) uvarint pair per non-empty bucket in
// ascending value order, the first delta taken from 0. Dependency
// distance histograms are concentrated on a few distances, so this is
// a handful of bytes; equal histograms encode to equal bytes.
func (h *Histogram) AppendSparse(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(h.Max))
	n := 0
	for _, c := range h.counts {
		if c != 0 {
			n++
		}
	}
	b = binary.AppendUvarint(b, uint64(n))
	prev := 0
	for v, c := range h.counts {
		if c != 0 {
			b = binary.AppendUvarint(b, uint64(v-prev))
			b = binary.AppendUvarint(b, c)
			prev = v
		}
	}
	return b
}

var errTruncated = errors.New("stats: truncated histogram encoding or overlong varint")

// DecodeSparse parses one histogram written by AppendSparse. Every
// field is validated — 1 <= Max <= MaxBound, values strictly ascending
// within [1, Max], non-zero counts, a total that fits in a uint64, no
// trailing bytes — so malformed input yields an error, never a panic.
func DecodeSparse(data []byte) (*Histogram, error) {
	next := func() (uint64, error) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, errTruncated
		}
		data = data[n:]
		return v, nil
	}
	max, err := next()
	if err != nil {
		return nil, err
	}
	if max < 1 || max > MaxBound {
		return nil, fmt.Errorf("stats: histogram bound %d outside [1,%d]", max, MaxBound)
	}
	n, err := next()
	if err != nil {
		return nil, err
	}
	if n > max {
		return nil, fmt.Errorf("stats: %d buckets exceed histogram bound %d", n, max)
	}
	h := &Histogram{Max: int(max)}
	if n > 0 {
		h.counts = make([]uint64, max+1)
	}
	var v uint64
	for i := uint64(0); i < n; i++ {
		d, err := next()
		if err != nil {
			return nil, err
		}
		if d == 0 || d > max-v {
			return nil, fmt.Errorf("stats: histogram value %d+%d not ascending within [1,%d]", v, d, max)
		}
		v += d
		c, err := next()
		if err != nil {
			return nil, err
		}
		if c == 0 {
			return nil, fmt.Errorf("stats: histogram value %d has zero count", v)
		}
		if h.total+c < h.total {
			return nil, errors.New("stats: histogram total overflows")
		}
		h.counts[v] = c
		h.total += c
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("stats: %d trailing bytes after histogram", len(data))
	}
	return h, nil
}
