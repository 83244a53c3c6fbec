package core

// lazyHeap is the incremental priority structure behind every greedy
// selection loop in the kernel: the truthful main run, the budgeted
// selection, and each counterfactual payment replay. The main runs seed it
// with every candidate; a replay starts it empty and pushes only the bids
// it pulls from the kernel's sorted θ=0 order (replayScratch.popBest), so
// its heap holds the few bids near the replay's front. It replaces the
// per-iteration O(candidates) arg-min scan with a binary min-heap over
// (score, bid index) under LAZY RESCORING, exploiting two monotonicity
// facts of the set-multicover greedy:
//
//   - θ only grows, so a bid's marginal coverage is non-increasing and its
//     greedy score (scaled price / marginal) is NON-DECREASING over time.
//     A cached key is therefore always a LOWER BOUND on the bid's true
//     score, and an entry whose cache is known fresh carries its exact
//     score.
//   - A bid whose marginal hits 0 is dead FOREVER and leaves the structure
//     permanently.
//
// Freshness is tracked with coverage epochs: bidEpoch[b] advances in a flat
// batch pass over the inverse cover incidence whenever a needy service's θ
// changes (kernel.dirtyCovering), and scoreEpoch[b] records the epoch at
// which (key, marg) were cached. Stale entries are rescored only when they
// surface at the heap root — a key can only rise, so one sift-down restores
// the heap invariant. Deletions (bidder-group bans) are lazy as well: pops
// discard entries whose group is banned (the main runs consult the
// companion candSet's pos, a replay its per-group ban stamps).
//
// Exactness (DESIGN.md §11): a root that is alive and epoch-current is the
// exact lexicographic minimum of (true score, bid index) over all live
// bids, because the heap orders by cached keys, every cached key
// lower-bounds its true score, and ties compare by bid index — so the pop
// sequence reproduces the reference implementation's ascending-scan
// lowest-index tie-break bit for bit; the differential oracle
// (TestDifferentialSSAM, FuzzSSAMDifferential) holds the winner sequence
// to it. The flat binary heap beat a full candidate scan and a pairing
// heap on this workload (no per-node allocations, cache-contiguous
// sifts; numbers in DESIGN.md §11 and under the scan-kernel label in
// results/BENCH_core.json), and a bucket queue would need float64 key
// quantization that cannot preserve exact score ties.
type lazyHeap struct {
	heap       []int32   // bid indices, min-ordered by (key, index)
	key        []float64 // cached score per bid (lower bound of true score)
	marg       []int32   // cached marginal per bid (exact when epoch-fresh)
	bidEpoch   []int32   // coverage epoch per bid (bumped by dirtyCovering)
	scoreEpoch []int32   // bidEpoch value at which key/marg were cached
}

// seed fills a main run's heap with the exact initial (score, marginal) of
// every candidate in cs at state theta, pruning bids whose marginal is
// already 0 from cs — they can never be selected (marginals only shrink),
// exactly as the reference's first scan would skip them. All per-bid arrays
// are pooled with the kernel; steady state allocates nothing.
func (lh *lazyHeap) seed(kn *kernel, theta []int32, cs *candSet) {
	lh.reset(kn.nb)
	for i := 0; i < len(cs.list); {
		b := cs.list[i]
		m := kn.marginalOf(b, theta)
		if m <= 0 {
			cs.removeAt(i)
			continue
		}
		lh.bidEpoch[b] = 0
		lh.scoreEpoch[b] = 0
		lh.marg[b] = int32(m)
		lh.key[b] = kn.scoreOf(b, m)
		lh.heap = append(lh.heap, b)
		i++
	}
	for i := len(lh.heap)/2 - 1; i >= 0; i-- {
		lh.siftDown(i)
	}
}

// reset empties lh and sizes its per-bid arrays for nb bids without
// clearing them: every entry's fields are written when it enters the heap.
func (lh *lazyHeap) reset(nb int) {
	lh.key = resizeFloat64(lh.key, nb)
	lh.marg = resizeInt32(lh.marg, nb)
	lh.bidEpoch = resizeInt32(lh.bidEpoch, nb)
	lh.scoreEpoch = resizeInt32(lh.scoreEpoch, nb)
	if cap(lh.heap) < nb {
		lh.heap = make([]int32, 0, nb)
	}
	lh.heap = lh.heap[:0]
}

// push inserts bid b with its exact marginal m at the current state. The
// entry is fresh at b's current coverage epoch, whatever that epoch is.
func (lh *lazyHeap) push(kn *kernel, b int32, m int) {
	lh.scoreEpoch[b] = lh.bidEpoch[b]
	lh.marg[b] = int32(m)
	lh.key[b] = kn.scoreOf(b, m)
	lh.heap = append(lh.heap, b)
	for i := len(lh.heap) - 1; i > 0; {
		parent := (i - 1) / 2
		if !lh.less(i, parent) {
			return
		}
		lh.heap[i], lh.heap[parent] = lh.heap[parent], lh.heap[i]
		i = parent
	}
}

// rescoreRoot rescores the stale root at state theta. A root whose
// marginal hit 0 is dead forever (θ only grows) and is popped; rescoreRoot
// then reports false so the caller can drop it from its candidate set.
// Otherwise its key can only have risen, and one sift-down restores the
// heap.
func (lh *lazyHeap) rescoreRoot(kn *kernel, theta []int32) bool {
	b := lh.heap[0]
	lh.scoreEpoch[b] = lh.bidEpoch[b]
	m := kn.marginalOf(b, theta)
	if m <= 0 {
		lh.pop()
		return false
	}
	lh.marg[b] = int32(m)
	lh.key[b] = kn.scoreOf(b, m)
	lh.siftDown(0)
	return true
}

// less orders heap slots by the shared greedy comparison over cached keys
// (lowest score first, lowest bid index on exact ties).
func (lh *lazyHeap) less(i, j int) bool {
	a, b := lh.heap[i], lh.heap[j]
	return betterScore(lh.key[a], a, lh.key[b], b)
}

func (lh *lazyHeap) siftDown(i int) {
	n := len(lh.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		least := l
		if r := l + 1; r < n && lh.less(r, l) {
			least = r
		}
		if !lh.less(least, i) {
			return
		}
		lh.heap[i], lh.heap[least] = lh.heap[least], lh.heap[i]
		i = least
	}
}

func (lh *lazyHeap) pop() {
	last := len(lh.heap) - 1
	lh.heap[0] = lh.heap[last]
	lh.heap = lh.heap[:last]
	if last > 0 {
		lh.siftDown(0)
	}
}

// popBest surfaces the true greedy arg-min at state theta: it examines the
// heap root, lazily discarding bids removed from cs by a bidder-group ban,
// rescoring stale roots in place (keys only rise, so one sift-down
// restores the heap), and permanently dropping bids whose rescored
// marginal hit 0. The returned winner is NOT popped — its subsequent group
// ban lets the lazy-delete path discard it. Returns best = -1 when no live
// candidate remains.
func (lh *lazyHeap) popBest(kn *kernel, theta []int32, cs *candSet) (best int32, bestScore float64, bestMarginal int) {
	for len(lh.heap) > 0 {
		b := lh.heap[0]
		if cs.pos[b] < 0 { // banned bidder group: lazy delete
			lh.pop()
			continue
		}
		if lh.scoreEpoch[b] != lh.bidEpoch[b] { // stale: lazy rescore
			if !lh.rescoreRoot(kn, theta) {
				cs.remove(b)
			}
			continue
		}
		return b, lh.key[b], int(lh.marg[b])
	}
	return -1, 0, 0
}
