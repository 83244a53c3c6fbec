package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"edgeauction/internal/obs"
)

// This file is the optimized SSAM selection/payment engine. It produces
// BIT-IDENTICAL outcomes (winner sequence, costs, every payment, the dual
// certificate) to the straightforward implementation preserved as the
// differential oracle in reference_test.go, via three exact optimizations:
//
//  1. CSR cover layout. Bid.Covers is flattened once per run into shared
//     arrays (coverStart offsets + coverKey needy indices + coverCap
//     precomputed min(Units, Demand[k]) per edge), so the inner marginal
//     loop is branch-light and cache-contiguous instead of chasing
//     per-bid slices.
//
//  2. Compact candidate list. Marginal coverage is monotone non-increasing
//     (θ only grows), so a bid whose marginal hits 0 is dead FOREVER; it is
//     dropped via swap-delete and never revisited, instead of re-walking a
//     full []bool mask every iteration.
//
//  2b. Lazy-rescore priority selection (lazyheap.go). Every greedy
//     selection loop — main run, budgeted run, and each counterfactual
//     replay — draws its arg-min from a binary min-heap over
//     (score, bid index) with epoch-tracked lazy rescoring and batch
//     dirtying over the inverse cover incidence, instead of a full
//     candidate scan per iteration. Exact by the monotone-marginal lower
//     bound argument written up in DESIGN.md §11.
//
//  3. Checkpointed counterfactual payment replays. The critical-value
//     replay that excludes winner w's bidder is provably identical to the
//     truthful run up to the iteration s where w was selected: before s,
//     no bid of w's bidder was ever the greedy arg-min — a strictly better
//     bid would have been selected, and under lowest-index tie-breaking an
//     equal-score bid of w's bidder with a lower index would also have been
//     selected, so removing the bidder changes neither the selections nor
//     the scores. The main run snapshots (θ, deficit, selected score) at
//     every winning iteration and stamps each bid once with until[b], the
//     number of checkpoints already taken when b left the candidate set,
//     so checkpoint s's candidate set is {b : until[b] > s} without a
//     per-winner copy of the candidate list. Each winner's replay then
//     reduces to a cheap prefix max over stored scores
//     (O(s·|Covers_w|), no candidate scans) plus a live replay of only the
//     SUFFIX from its own checkpoint. The per-iteration max is
//     order-independent, so prefix-max + suffix-max equals the full
//     replay's max bit for bit. Pivotal winners (counterfactual arg-min
//     exhausted) can only surface in the suffix — the prefix replays
//     selections that actually happened. The suffix replays share one
//     candidate order built once per run: every bid live at θ=0, sorted by
//     its θ=0 (score, bid index) — concurrently with selection when the
//     replays fan out. A score only rises as θ grows, so that
//     key lower-bounds the bid at every checkpoint and every later
//     counterfactual state; each replay pulls from the order lazily into a
//     small heap of its own and stops pulling once its fresh root beats the
//     next key in the order (DESIGN.md §7), so it scores only the bids it
//     pulls.
//
// The kernel operates on int32 state for cache density; build rejects the
// (unrealistic) instances whose demands overflow that domain instead of
// silently truncating.

// betterScore is THE greedy ordering, shared by every selection path (the
// lazy-rescore heaps behind selection, budgeted selection, and the
// counterfactual suffix replays): (s1, b1) beats (s2, b2) when its score
// is strictly lower, or on an exact score tie when its bid index is lower.
// Centralizing the comparison keeps the tie-break bit-identical across all
// paths — the reference's ascending scan realizes the same order
// implicitly, and the differential fuzz gate holds every path to it.
func betterScore(s1 float64, b1 int32, s2 float64, b2 int32) bool {
	return s1 < s2 || (s1 == s2 && b1 < b2)
}

// scoredBid is one entry of the kernel's θ=0 candidate order: bid b with
// its exact score at θ=0, the lower bound of its score at any later state.
type scoredBid struct {
	key float64
	b   int32
}

// candSet is a compact candidate list with O(1) swap-delete membership:
// list holds the live bid indices in arbitrary order, pos maps a bid index
// to its position in list (-1 once removed). Swap-deletes permute list
// order, so nothing may rely on it for the lowest-bid-index tie-break; the
// heaps apply it explicitly through betterScore.
//
// until, when non-nil (the kernel's main run), stamps each removed bid
// with clock at its removal — the number of payment checkpoints taken
// before the bid left the set; bids never removed keep math.MaxInt32.
// Checkpoint s's candidate set is then exactly {b : until[b] > s}.
type candSet struct {
	list  []int32
	pos   []int32
	until []int32
	clock int32
}

func (cs *candSet) reset(nb int) {
	if cap(cs.list) < nb {
		cs.list = make([]int32, nb)
		cs.pos = make([]int32, nb)
	}
	cs.list = cs.list[:nb]
	cs.pos = cs.pos[:nb]
	for i := range cs.list {
		cs.list[i] = int32(i)
		cs.pos[i] = int32(i)
	}
}

func (cs *candSet) removeAt(i int) {
	b := cs.list[i]
	last := len(cs.list) - 1
	moved := cs.list[last]
	cs.list[i] = moved
	cs.pos[moved] = int32(i)
	cs.list = cs.list[:last]
	cs.pos[b] = -1 // after pos[moved]: correct even when b == moved
	if cs.until != nil {
		cs.until[b] = cs.clock
	}
}

func (cs *candSet) remove(b int32) {
	if p := cs.pos[b]; p >= 0 {
		cs.removeAt(int(p))
	}
}

// kernel is the flat view of one ssamScaled (or BudgetedSSAM) run plus all
// mutable greedy state and the payment checkpoints. Kernels are pooled; the
// flat view is immutable once built and is shared read-only by the parallel
// payment replays.
type kernel struct {
	nb     int // number of bids
	nk     int // number of needy microservices
	metric GreedyMetric

	demand []int32
	scaled []float64 // caller's scaled prices ∇ (borrowed, read-only)

	// CSR cover view: bid b's edges are [coverStart[b], coverStart[b+1]).
	coverStart []int32
	coverKey   []int32 // needy index per edge
	coverCap   []int32 // min(Units, Demand[key]) per edge

	// Bidder grouping ("remove ALL bids of the winning bidder"): groupOf
	// maps a bid to a dense bidder id, groupStart/groupBids list each
	// group's bids CSR-style. bidderGroup is the build-time dense
	// re-indexing map, retained (and cleared) across pooled reuse.
	groupOf     []int32
	groupStart  []int32
	groupBids   []int32
	cursor      []int32
	bidderGroup map[int]int32

	// Inverse cover incidence (CSR): the bids covering needy k are
	// incBid[incStart[k]:incStart[k+1]]. The batch dirtying pass walks one
	// row per needy whose θ changed, bumping the covering bids' epochs.
	incStart []int32
	incBid   []int32

	// Main-run lazy-rescore priority structure over (score, bid index);
	// see lazyheap.go for the staleness/exactness invariants.
	lh lazyHeap

	// order holds every bid live at θ=0 with its exact θ=0 score, sorted
	// by (score, bid index) under betterScore (CriticalValue payments
	// only; empty otherwise). Built once per run from the main heap's
	// seed (buildOrder), it is read-only afterwards and shared by every
	// payment replay, each of which pulls from it through its own cursor.
	// sorting tracks a sort that overlaps the selection run.
	order   []scoredBid
	sorting sync.WaitGroup

	// Main-run mutable state.
	theta       []int32 // θ_k, capped at demand[k]
	deficit     int
	totalDemand int
	cand        candSet
	winners     []int

	// Per-winning-iteration checkpoints (CriticalValue payments only):
	// state BEFORE the iteration's winner was applied or its bidder
	// removed. ckTheta is iterations × nk flattened; ckScore is the
	// iteration's selected score. A checkpoint's candidate set is read
	// back from cand.until (see candSet).
	ckTheta   []int32
	ckDeficit []int
	ckScore   []float64

	gains []int // certificate per-winner gains scratch (aligned with Covers)

	// tracer is Options.Tracer for the duration of one run (nil when
	// tracing is disabled); cleared on release so a pooled kernel never
	// leaks a sink into the next run.
	tracer obs.Tracer
}

var kernelPool = sync.Pool{New: func() any { return new(kernel) }}

func resizeInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func resizeFloat64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// build flattens ins and scaled into the kernel and resets all run state.
func (kn *kernel) build(ins *Instance, scaled []float64, opts Options) error {
	nb, nk := len(ins.Bids), len(ins.Demand)
	kn.nb, kn.nk = nb, nk
	kn.scaled = scaled
	kn.metric = opts.metric()
	kn.tracer = opts.Tracer

	kn.demand = resizeInt32(kn.demand, nk)
	kn.totalDemand = 0
	for k, d := range ins.Demand {
		if d > math.MaxInt32 {
			return fmt.Errorf("core: demand %d of needy microservice %d exceeds the kernel's int32 domain", d, k)
		}
		// The raw (possibly negative) demand counts toward the deficit —
		// the reference sums demands verbatim — but the gain math clamps
		// at 0 so a negative demand can never be covered, exactly like the
		// reference's `before >= demand` skip.
		kn.totalDemand += d
		if d < 0 {
			d = 0
		}
		kn.demand[k] = int32(d)
	}
	kn.deficit = kn.totalDemand
	kn.theta = resizeInt32(kn.theta, nk)
	for k := range kn.theta {
		kn.theta[k] = 0
	}

	edges := 0
	for i := range ins.Bids {
		edges += len(ins.Bids[i].Covers)
	}
	kn.coverStart = resizeInt32(kn.coverStart, nb+1)
	kn.coverKey = resizeInt32(kn.coverKey, edges)
	kn.coverCap = resizeInt32(kn.coverCap, edges)
	e := int32(0)
	for i := range ins.Bids {
		b := &ins.Bids[i]
		if b.Units < 1 {
			return fmt.Errorf("core: bid %d has non-positive units %d", i, b.Units)
		}
		kn.coverStart[i] = e
		for _, k := range b.Covers {
			u := b.Units // clamp in int before narrowing: demand ≤ MaxInt32
			if d := int(kn.demand[k]); u > d {
				u = d
			}
			kn.coverKey[e] = int32(k)
			kn.coverCap[e] = int32(u)
			e++
		}
	}
	kn.coverStart[nb] = e

	if kn.bidderGroup == nil {
		kn.bidderGroup = make(map[int]int32, nb)
	}
	clear(kn.bidderGroup)
	kn.groupOf = resizeInt32(kn.groupOf, nb)
	for i := range ins.Bids {
		g, ok := kn.bidderGroup[ins.Bids[i].Bidder]
		if !ok {
			g = int32(len(kn.bidderGroup))
			kn.bidderGroup[ins.Bids[i].Bidder] = g
		}
		kn.groupOf[i] = g
	}
	groups := len(kn.bidderGroup)
	kn.groupStart = resizeInt32(kn.groupStart, groups+1)
	for g := range kn.groupStart {
		kn.groupStart[g] = 0
	}
	for i := 0; i < nb; i++ {
		kn.groupStart[kn.groupOf[i]+1]++
	}
	for g := 0; g < groups; g++ {
		kn.groupStart[g+1] += kn.groupStart[g]
	}
	kn.groupBids = resizeInt32(kn.groupBids, nb)
	kn.cursor = append(kn.cursor[:0], kn.groupStart[:groups]...)
	for i := 0; i < nb; i++ {
		g := kn.groupOf[i]
		kn.groupBids[kn.cursor[g]] = int32(i)
		kn.cursor[g]++
	}

	// Inverse incidence rows (counting sort over the CSR edges).
	kn.incStart = resizeInt32(kn.incStart, nk+1)
	for k := range kn.incStart {
		kn.incStart[k] = 0
	}
	for _, k := range kn.coverKey[:e] {
		kn.incStart[k+1]++
	}
	for k := 0; k < nk; k++ {
		kn.incStart[k+1] += kn.incStart[k]
	}
	kn.incBid = resizeInt32(kn.incBid, int(e))
	kn.cursor = append(kn.cursor[:0], kn.incStart[:nk]...)
	for b := int32(0); b < int32(nb); b++ {
		for ee := kn.coverStart[b]; ee < kn.coverStart[b+1]; ee++ {
			k := kn.coverKey[ee]
			kn.incBid[kn.cursor[k]] = b
			kn.cursor[k]++
		}
	}

	kn.cand.reset(nb)
	kn.cand.until = resizeInt32(kn.cand.until, nb)
	for b := range kn.cand.until {
		kn.cand.until[b] = math.MaxInt32
	}
	kn.cand.clock = 0
	kn.winners = kn.winners[:0]
	kn.ckTheta = kn.ckTheta[:0]
	kn.ckDeficit = kn.ckDeficit[:0]
	kn.ckScore = kn.ckScore[:0]
	kn.lh.seed(kn, kn.theta, &kn.cand)
	kn.order = kn.order[:0]
	return nil
}

// buildOrder fills kn.order from the main heap's fresh seed — exactly the
// bids live at θ=0, with their exact θ=0 scores — and sorts it under
// betterScore. It must run right after build, before selection moves the
// heap. With overlap set the sort runs on its own goroutine: selection
// never reads kn.order, so a payment phase that fans out does not wait on
// the sort serially. computePayments joins it (kn.sorting) before the
// first replay, and release joins it too, so a failed selection never
// pools a kernel whose order is still being sorted.
func (kn *kernel) buildOrder(overlap bool) {
	for _, b := range kn.lh.heap {
		kn.order = append(kn.order, scoredBid{kn.lh.key[b], b})
	}
	if !overlap {
		sortOrder(kn.order)
		return
	}
	order := kn.order
	kn.sorting.Add(1)
	go func() {
		defer kn.sorting.Done()
		sortOrder(order)
	}()
}

// sortOrder sorts a candidate order by (θ=0 score, bid index).
func sortOrder(order []scoredBid) {
	slices.SortFunc(order, func(x, y scoredBid) int {
		if betterScore(x.key, x.b, y.key, y.b) {
			return -1
		}
		return 1 // bid indices are distinct: no two entries tie
	})
}

// scoreOf is the greedy metric evaluated exactly as the reference does:
// scaled price over marginal for PricePerCoverage, scaled price alone for
// LowestPrice. All paths must compute scores through this one function so
// the float64 operation sequence stays bit-identical.
func (kn *kernel) scoreOf(b int32, m int) float64 {
	if kn.metric == LowestPrice {
		return kn.scaled[b]
	}
	return kn.scaled[b] / float64(m)
}

// popBest surfaces the main run's true greedy arg-min (see
// lazyHeap.popBest for the mechanics and exactness argument).
func (kn *kernel) popBest() (best int32, bestScore float64, bestMarginal int) {
	return kn.lh.popBest(kn, kn.theta, &kn.cand)
}

// dirtyCovering bumps — in lh — the coverage epoch of every bid covering
// needy k: the flat SoA batch pass that invalidates cached scores after
// θ[k] moved. Banned and dead bids are bumped too; that is cheaper than
// filtering and harmless (their heap entries are discarded on pop
// regardless).
func (kn *kernel) dirtyCovering(lh *lazyHeap, k int32) {
	for _, b := range kn.incBid[kn.incStart[k]:kn.incStart[k+1]] {
		lh.bidEpoch[b]++
	}
}

// applyDirtyState commits bid b to (theta, deficit) and batch-invalidates —
// in lh — the cached scores of every bid whose marginal the commit may have
// changed (exactly the bids covering a needy whose θ moved). Serves both
// the main run (kn.theta/kn.lh via applyDirty) and the payment replays
// (rs.theta/rs.lh).
func (kn *kernel) applyDirtyState(lh *lazyHeap, theta []int32, deficit *int, b int32) {
	for e := kn.coverStart[b]; e < kn.coverStart[b+1]; e++ {
		k := kn.coverKey[e]
		r := kn.demand[k] - theta[k]
		g := kn.coverCap[e]
		if g > r {
			g = r
		}
		if g > 0 {
			theta[k] += g
			*deficit -= int(g)
			kn.dirtyCovering(lh, k)
		}
	}
}

// applyDirty is applyDirtyState on the main-run state.
func (kn *kernel) applyDirty(b int32) {
	kn.applyDirtyState(&kn.lh, kn.theta, &kn.deficit, b)
}

// release drops the borrowed scaled-price slice and returns the kernel to
// the pool. All payment workers must have been joined by the caller; an
// overlapping sort of the candidate order is joined here.
func (kn *kernel) release() {
	kn.sorting.Wait()
	kn.scaled = nil
	kn.tracer = nil
	kernelPool.Put(kn)
}

// marginalOf returns U_w(E): the marginal coverage of bid b at state theta
// (Eq. 19). theta may be the main-run state, a replay state, or a stored
// checkpoint row. With theta capped at demand, every residual r is ≥ 0 and
// each edge contributes min(coverCap, r) — branch-light by construction.
func (kn *kernel) marginalOf(b int32, theta []int32) int {
	gain := 0
	for e := kn.coverStart[b]; e < kn.coverStart[b+1]; e++ {
		k := kn.coverKey[e]
		r := kn.demand[k] - theta[k]
		g := kn.coverCap[e]
		if g > r {
			g = r
		}
		gain += int(g)
	}
	return gain
}

// applyTo commits bid b to (theta, deficit). theta stays capped at demand,
// so the per-edge gain formula matches marginalOf exactly.
func (kn *kernel) applyTo(theta []int32, deficit *int, b int32) {
	for e := kn.coverStart[b]; e < kn.coverStart[b+1]; e++ {
		k := kn.coverKey[e]
		r := kn.demand[k] - theta[k]
		g := kn.coverCap[e]
		if g > r {
			g = r
		}
		theta[k] += g
		*deficit -= int(g)
	}
}

// applyGains is applyTo on the main-run state, additionally materializing
// the per-cover gains (aligned with Bid.Covers) into the pooled kn.gains
// scratch for the certificate builder — the only consumer. SkipCertificate
// runs never call it and allocate nothing per iteration.
func (kn *kernel) applyGains(b int32) []int {
	n := int(kn.coverStart[b+1] - kn.coverStart[b])
	if cap(kn.gains) < n {
		kn.gains = make([]int, n)
	}
	kn.gains = kn.gains[:n]
	for i, e := 0, kn.coverStart[b]; e < kn.coverStart[b+1]; i, e = i+1, e+1 {
		k := kn.coverKey[e]
		r := kn.demand[k] - kn.theta[k]
		g := kn.coverCap[e]
		if g > r {
			g = r
		}
		kn.theta[k] += g
		kn.deficit -= int(g)
		kn.gains[i] = int(g)
	}
	return kn.gains
}

// removeGroupIn removes every bid of bidder group g from cs.
func (kn *kernel) removeGroupIn(cs *candSet, g int32) {
	for _, b := range kn.groupBids[kn.groupStart[g]:kn.groupStart[g+1]] {
		cs.remove(b)
	}
}

// checkpoint snapshots the pre-apply state of the current winning
// iteration: θ, deficit and the iteration's selected score for the prefix
// max. Advancing cand.clock closes the checkpoint's candidate set: the
// bids still in the set now (post dead-bid removal, pre winner-group
// removal — dead bids are dead in every counterfactual too, and the
// replay filters the excluded bidder itself) are exactly those whose
// until ends up above this checkpoint's index.
func (kn *kernel) checkpoint(score float64) {
	kn.ckTheta = append(kn.ckTheta, kn.theta...)
	kn.ckDeficit = append(kn.ckDeficit, kn.deficit)
	kn.ckScore = append(kn.ckScore, score)
	kn.cand.clock++
}

// dirtyGains is the batch epoch pass for the certificate path (main run
// only): applyGains has already committed bid b, so the per-cover gains
// tell exactly which needy services' θ moved.
func (kn *kernel) dirtyGains(b int32, gains []int) {
	for i, e := 0, kn.coverStart[b]; e < kn.coverStart[b+1]; i, e = i+1, e+1 {
		if gains[i] > 0 {
			kn.dirtyCovering(&kn.lh, kn.coverKey[e])
		}
	}
}

// selectWinners runs the greedy selection loop (Algorithm 1, lines 3-12)
// on the built kernel, filling out's winner list and cost accounting and
// feeding the certificate builder when present. The per-iteration arg-min
// comes from the lazy-rescore heap (popBest) instead of a full candidate
// scan, and each committed winner batch-invalidates only the bids whose
// marginals it touched. Checkpoints are recorded only when the payment
// phase will consume them; with lazy dead-bid discovery a checkpoint's
// candidate set may retain bids whose marginal already hit 0 — harmless,
// because deadness depends only on θ and the replay scans prune them before
// any score is computed (DESIGN.md §11).
func (kn *kernel) selectWinners(ins *Instance, opts Options, out *Outcome, cert *certBuilder) error {
	checkpoints := opts.payment() == CriticalValue
	for kn.deficit > 0 {
		best, score, marginal := kn.popBest()
		if best < 0 {
			return fmt.Errorf("%w: uncovered demand %d remains", ErrInfeasible, kn.deficit)
		}
		if checkpoints {
			kn.checkpoint(score)
		}
		if kn.tracer != nil {
			kn.tracer.Emit(obs.GreedyPick{
				Iteration: len(kn.winners), Bid: int(best),
				Bidder: ins.Bids[best].Bidder, Alt: ins.Bids[best].Alt,
				Score: score, Marginal: marginal, ScaledPrice: kn.scaled[best],
			})
		}
		kn.removeGroupIn(&kn.cand, kn.groupOf[best])
		if cert != nil {
			gains := kn.applyGains(best)
			kn.dirtyGains(best, gains)
			cert.record(int(best), &ins.Bids[best], gains, kn.scaled[best], marginal)
		} else {
			kn.applyDirty(best)
		}
		kn.winners = append(kn.winners, int(best))
		out.SocialCost += ins.Bids[best].Price
		out.ScaledCost += kn.scaled[best]
	}
	out.Winners = append([]int(nil), kn.winners...)
	return nil
}

// replayScratch is the reusable per-replay mutable state of one
// counterfactual payment run: θ/deficit, the replay's cursor into the
// kernel's shared θ=0 candidate order, per-group ban stamps, and the
// replay's own lazy-rescore heap over the bids it has pulled — a
// counterfactual replay is just another greedy run whose θ only grows, so
// the same lazy-greedy exactness argument applies from its starting state.
// Pooled so neither the serial nor the parallel payment path allocates per
// winner, and nothing in it is reset in O(bids) per replay.
type replayScratch struct {
	theta   []int32
	deficit int
	s       int32   // checkpoint the replay starts from; -1 from scratch
	next    int     // cursor: kn.order[:next] has been pulled
	gen     int32   // this replay's stamp in banned
	banned  []int32 // per bidder group: == gen once banned in this replay
	lh      lazyHeap
}

var replayScratchPool = sync.Pool{New: func() any { return new(replayScratch) }}

// load initializes rs for a replay with bidder group ban excluded, from
// main-run checkpoint s, or from the blank pre-auction state (θ ≡ 0, every
// bid live) when s < 0 — the from-scratch replay BudgetedSSAM uses, whose
// selection path diverges from plain SSAM once the budget binds and so
// cannot reuse the truthful run's checkpoints. Nothing is scored here: the
// replay pulls candidates from kn.order on demand (popBest), skipping the
// bids outside checkpoint s's set (until[b] ≤ s) and the banned groups.
func (rs *replayScratch) load(kn *kernel, s int, ban int32) {
	if s < 0 {
		rs.theta = resizeInt32(rs.theta, kn.nk)
		clear(rs.theta)
		rs.deficit = kn.totalDemand
	} else {
		rs.theta = append(rs.theta[:0], kn.ckTheta[s*kn.nk:(s+1)*kn.nk]...)
		rs.deficit = kn.ckDeficit[s]
	}
	rs.s = int32(s)
	rs.next = 0
	rs.banned = resizeInt32(rs.banned, len(kn.groupStart)-1)
	rs.gen++
	if rs.gen <= 0 { // wrapped: forget every stamp, including past len
		clear(rs.banned[:cap(rs.banned)])
		rs.gen = 1
	}
	rs.banned[ban] = rs.gen
	rs.lh.reset(kn.nb)
}

// popBest surfaces the replay's true greedy arg-min at rs.theta. The heap
// holds only bids already pulled from kn.order; its root, once live and
// epoch-fresh, carries its exact score. Every unpulled bid c sits at or
// after the cursor, so (score_θ[c], c) ≥ (key₀[c], c) ≥ (key₀[next], next)
// — scores only rise with θ and the order is sorted. The root is therefore
// the arg-min as soon as it beats the next entry's θ=0 key; until then the
// next entry is pulled, scored at rs.theta and pushed (or dropped, when it
// is outside the checkpoint's set, banned, or dead). The returned winner is
// NOT popped — its group ban discards it at the next call. Returns
// best = -1 when no live candidate remains.
func (rs *replayScratch) popBest(kn *kernel) (best int32, bestScore float64) {
	lh := &rs.lh
	for {
		if len(lh.heap) > 0 {
			b := lh.heap[0]
			if rs.banned[kn.groupOf[b]] == rs.gen { // lazy delete
				lh.pop()
				continue
			}
			if lh.scoreEpoch[b] != lh.bidEpoch[b] {
				lh.rescoreRoot(kn, rs.theta)
				continue
			}
			if rs.next == len(kn.order) || betterScore(lh.key[b], b, kn.order[rs.next].key, kn.order[rs.next].b) {
				return b, lh.key[b]
			}
		} else if rs.next == len(kn.order) {
			return -1, 0
		}
		b := kn.order[rs.next].b
		rs.next++
		if kn.cand.until[b] <= rs.s || rs.banned[kn.groupOf[b]] == rs.gen {
			continue
		}
		if m := kn.marginalOf(b, rs.theta); m > 0 {
			lh.push(kn, b, m)
		}
	}
}

// replayFrom runs the counterfactual greedy from rs's loaded state,
// accumulating max over iterations of U_w(E_s)·θ_s — what bid w's report
// could be while still preempting the iteration — until w can no longer
// contribute or the demand is covered. The per-iteration arg-min comes
// from the replay's lazy pull over the shared candidate order (popBest),
// so a replay pays for the pulls and pops its own suffix needs plus batch
// dirtying, not for scoring every candidate of its checkpoint. pivotal
// reports that the remaining demand was uncoverable while w still had
// positive marginal (the reserve applies; any accumulated value is
// discarded, as in the reference).
func (kn *kernel) replayFrom(rs *replayScratch, w int32, prior float64) (best float64, pivotal bool) {
	best = prior
	for rs.deficit > 0 {
		m := kn.marginalOf(w, rs.theta)
		if m <= 0 {
			break
		}
		idx, score := rs.popBest(kn)
		if idx < 0 {
			return 0, true
		}
		if v := float64(m) * score; v > best {
			best = v
		}
		rs.banned[kn.groupOf[idx]] = rs.gen
		kn.applyDirtyState(&rs.lh, rs.theta, &rs.deficit, idx)
	}
	return best, false
}

// criticalValue computes winner w's Myerson threshold (Lemma 3's
// counterfactual without w's bidder, see paymentFor in reference_test.go
// for the from-scratch formulation). s is w's position in the winner
// sequence. The prefix t < s replays nothing: the counterfactual coincides
// with the truthful run there, so the iteration values are
// marginalOf(w, checkpoint-θ_t) · stored score_t. The suffix runs live
// from checkpoint s. Pivotality cannot occur in the prefix (those
// iterations selected real bids), and w's marginal is strictly positive
// throughout it (marginals are non-increasing and w's was still positive
// at s), so no prefix iteration can break out early either.
func (kn *kernel) criticalValue(ins *Instance, w int32, s int, opts Options, rs *replayScratch) float64 {
	best := 0.0
	for t := 0; t < s; t++ {
		m := kn.marginalOf(w, kn.ckTheta[t*kn.nk:(t+1)*kn.nk])
		if v := float64(m) * kn.ckScore[t]; v > best {
			best = v
		}
	}
	rs.load(kn, s, kn.groupOf[w])
	best, pivotal := kn.replayFrom(rs, w, best)
	switch {
	case pivotal:
		best = reservePayment(ins, kn.scaled, int(w), opts)
	case best < kn.scaled[w]:
		// Numeric guard: the winner beat the truthful-run competition, so
		// its critical value is at least its own report.
		best = kn.scaled[w]
	}
	if kn.tracer != nil {
		kn.tracer.Emit(obs.PaymentReplay{
			Winner: int(w), Bidder: ins.Bids[w].Bidder, Payment: best,
			Checkpoint: s, CheckpointHit: true, Pivotal: pivotal,
		})
	}
	return best
}

// fullCounterfactual computes the critical value of bid w via a
// from-scratch replay against the full candidate set. BudgetedSSAM uses it
// because its budget-filtered selection state must not leak into the
// threshold (report-independence).
func (kn *kernel) fullCounterfactual(ins *Instance, w int32, opts Options, rs *replayScratch) float64 {
	if opts.payment() == FirstPrice {
		return kn.scaled[w]
	}
	rs.load(kn, -1, kn.groupOf[w])
	best, pivotal := kn.replayFrom(rs, w, 0)
	switch {
	case pivotal:
		best = reservePayment(ins, kn.scaled, int(w), opts)
	case best < kn.scaled[w]:
		best = kn.scaled[w]
	}
	if kn.tracer != nil {
		// Checkpoint miss by design: the budgeted selection path diverges
		// from the truthful run, so this replay started from scratch.
		kn.tracer.Emit(obs.PaymentReplay{
			Winner: int(w), Bidder: ins.Bids[w].Bidder, Payment: best,
			CheckpointHit: false, Pivotal: pivotal,
		})
	}
	return best
}

// computePayments fills payments[w] for every winner of the completed
// selection run. Each winner's replay depends only on the immutable flat
// view, its checkpoint, and its winner position, so replays fan out across
// a bounded worker pool with bit-identical results at every Parallelism
// level (each replay performs the same float64 operation sequence
// regardless of scheduling; results are assembled serially).
func (kn *kernel) computePayments(ins *Instance, opts Options, payments map[int]float64) {
	winners := kn.winners
	if len(winners) == 0 {
		return
	}
	if opts.payment() == FirstPrice {
		for _, w := range winners {
			payments[w] = kn.scaled[w]
		}
		return
	}
	kn.sorting.Wait()
	workers := opts.parallelism()
	if workers > len(winners) {
		workers = len(winners)
	}
	if workers <= 1 {
		rs := replayScratchPool.Get().(*replayScratch)
		for s, w := range winners {
			payments[w] = kn.criticalValue(ins, int32(w), s, opts, rs)
		}
		replayScratchPool.Put(rs)
		return
	}
	results := make([]float64, len(winners))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs := replayScratchPool.Get().(*replayScratch)
			defer replayScratchPool.Put(rs)
			for {
				s := int(next.Add(1)) - 1
				if s >= len(winners) {
					return
				}
				results[s] = kn.criticalValue(ins, int32(winners[s]), s, opts, rs)
			}
		}()
	}
	wg.Wait()
	for s, w := range winners {
		payments[w] = results[s]
	}
}
