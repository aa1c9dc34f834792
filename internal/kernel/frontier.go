package kernel

import "slices"

// frontier is one layer of a double-buffered sparse DP: a flat value
// buffer over the full cell space plus an explicit list of the active
// (nonzero-mass) cells. Invariant: every slot of val outside list is
// zero and its on flag is false, so reuse across positions and across
// calls needs no re-zeroing sweep — reset clears exactly the touched
// cells.
type frontier struct {
	val  []float64
	on   []bool
	list []int32
}

// ensure sizes the buffers for a cell space of n cells, preserving the
// all-zero invariant. It allocates only when capacity grows.
func (f *frontier) ensure(n int) {
	if cap(f.val) < n {
		f.val = make([]float64, n)
		f.on = make([]bool, n)
		f.list = f.list[:0]
		return
	}
	f.val = f.val[:n]
	f.on = f.on[:n]
}

// add accumulates v into cell i, activating it if needed.
func (f *frontier) add(i int32, v float64) {
	if !f.on[i] {
		f.on[i] = true
		f.list = append(f.list, i)
	}
	f.val[i] += v
}

// relax max-updates cell i with score v (for Viterbi-style DPs),
// reporting whether the cell improved.
func (f *frontier) relax(i int32, v float64) bool {
	if !f.on[i] {
		f.on[i] = true
		f.val[i] = v
		f.list = append(f.list, i)
		return true
	}
	if v > f.val[i] {
		f.val[i] = v
		return true
	}
	return false
}

// sortList puts the active-cell list in increasing cell order. The
// constrained resume sorts each past-zone layer before expanding it, and
// the checkpoint build each layer it stores, so that the expansion order
// — and with it every tie-broken incumbent — depends only on which cells
// are active, not on how they were first reached; that is what makes the
// bounds-pruned sweep bit-identical to the exhaustive one, and a derived
// or extended checkpoint identical to a fresh build (see the determinism
// notes in constrained.go). A list that fills at least an eighth of the
// cell range it spans is rebuilt in linear time, by one scan of the
// range's flags; a sparser one is sorted.
func (f *frontier) sortList() {
	if len(f.list) < 2 {
		return
	}
	lo, hi := f.list[0], f.list[0]
	for _, c := range f.list[1:] {
		lo, hi = min(lo, c), max(hi, c)
	}
	if int(hi-lo) >= 8*len(f.list) {
		slices.Sort(f.list)
		return
	}
	k := 0
	for c, on := range f.on[lo : hi+1] {
		if on {
			f.list[k] = lo + int32(c)
			k++
		}
	}
}

// reset deactivates every active cell, restoring the all-zero invariant
// in O(active) time.
func (f *frontier) reset() {
	for _, i := range f.list {
		f.val[i] = 0
		f.on[i] = false
	}
	f.list = f.list[:0]
}
