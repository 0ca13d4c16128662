package sparse

import (
	"math"
	"math/bits"
)

// rankIndex answers "where in row i is column j stored" in O(1): per row
// a bitset over the columns and, per 64-column word, the number of the
// row's entries stored below that word — rows·⌈cols/64⌉·12 bytes. It is
// derived from the matrix and never serialized, fingerprinted or counted
// with its entries.
type rankIndex struct {
	words int      // ⌈cols/64⌉
	set   []uint64 // rows·words; bit j&63 of word i·words + j>>6 ⇔ (i, j) stored
	below []uint32 // rows·words; row i's entries in columns under the word's first
}

// rank returns m's rank index, building it on first call, or nil for a
// matrix the rule excludes. What builds one is a kernel about to make
// many probes: the marginal walk and the per-anchor terms for every
// count stacked on a product (MatMulMarginals, AnchorTerms — on the
// training path the first users of an attribute count), Hadamard for
// the longer side of a stacking. The
// point probes below — At, MatMulAt — read an index that exists and
// never build one, since a single lookup does not pay for a pass over
// the matrix. The rule reads the matrix alone: an index pays for
// its words when the matrix stores at least one entry per 64-column word
// on average, nnz·64 ≥ rows·cols — true of the attribute counts every
// fold stacks on (57 % dense), false of a sparse follow adjacency or a
// fold's thin pre∘anchor factor. A CSR is immutable, so the verdict and
// the index are never invalidated; concurrent first users build it once.
func (m *CSR) rank() *rankIndex {
	m.rankOnce.Do(func() {
		if len(m.val) == 0 || m.cols > math.MaxUint32 || float64(len(m.val))*64 < float64(m.rows)*float64(m.cols) {
			return
		}
		words := (m.cols + 63) / 64
		r := &rankIndex{words: words, set: make([]uint64, m.rows*words), below: make([]uint32, m.rows*words)}
		for i := 0; i < m.rows; i++ {
			set, below := r.set[i*words:(i+1)*words], r.below[i*words:(i+1)*words]
			for _, j := range m.colIdx[m.rowPtr[i]:m.rowPtr[i+1]] {
				set[j>>6] |= 1 << (uint(j) & 63)
			}
			n := 0
			for w, s := range set {
				below[w] = uint32(n)
				n += bits.OnesCount64(s)
			}
		}
		m.rankIdx.Store(r)
		mRankBuilds.Inc()
	})
	return m.rankIdx.Load()
}

// offset returns the position of column j within row i's stored
// entries, or -1 when (i, j) is not stored: a bit test and a popcount.
func (r *rankIndex) offset(i, j int) int {
	w := i*r.words + j>>6
	s, bit := r.set[w], uint64(1)<<(uint(j)&63)
	if s&bit == 0 {
		return -1
	}
	return int(r.below[w]) + bits.OnesCount64(s&(bit-1))
}

// position returns the index into colIdx/val at which (i, j) is stored,
// or -1 — the point probe behind At and MatMulAt and so behind the
// feature fill: rankIndex.offset where a probing kernel has left the
// matrix an index, a binary search within the row otherwise. i and j
// must be in range.
func (m *CSR) position(i, j int) int {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	if r := m.rankIdx.Load(); r != nil {
		if k := r.offset(i, j); k >= 0 {
			return lo + k
		}
		return -1
	}
	for end := hi; lo < end; {
		if mid := int(uint(lo+end) >> 1); m.colIdx[mid] < j {
			lo = mid + 1
		} else {
			end = mid
		}
	}
	if lo < hi && m.colIdx[lo] == j {
		return lo
	}
	return -1
}
