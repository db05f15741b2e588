package mining

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"maps"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// boolCore is the live counting core shared by the MASK and
// cut-and-paste schemes: a sparse joint histogram over perturbed boolean
// rows (bitset → multiplicity). The joint histogram is the minimal
// sufficient state for both schemes — every observable either estimator
// needs (bit-combination pattern counts for MASK, partial supports for
// C&P) is a projection of it — and it is exactly the shape the
// replication-delta protocol speaks (cell index = row bitset), so MASK
// and C&P counters get sharding, persistence, and federation through the
// same plumbing as gamma. Safe for concurrent use.
//
// The histogram is stored column-wise so reads cost popcounts, not a
// walk over every row. Each distinct row owns an append-only slot; per
// 64-slot word the core keeps one bitmap per boolean column (which slots
// have that bit set) and the multiplicities as bit-planes (plane b holds
// bit b of every slot's count). A length-l pattern count over one word
// is then Σ_b popcount(group & plane_b) << b, where group is the AND /
// AND-NOT of the l column words — exact integer arithmetic, so every
// count, and every estimate built from it, is bit-identical to a per-row
// scan. (Itemsets longer than denseMaxLen scan the slots instead; see
// gatherSparse.)
type boolCore struct {
	est   boolEstimator
	mb    int   // boolean columns, the stride of cols
	cards []int // category count per attribute, for rowOf

	mu sync.RWMutex
	n  int
	// slot indexes rows (row bitset → slot). A folded snapshot has
	// none: its rows may repeat, once per source core (see foldInto).
	slot map[uint64]int32
	rows []uint64 // slot → row bitset
	// cols holds the column bitmaps word-major: bit s%64 of
	// cols[(s/64)*mb+j] is bit j of rows[s].
	cols []uint64
	// planes[b][s/64] holds bit b of slot s's multiplicity at bit s%64.
	// Every slot's count is at least 1, except a folded snapshot's
	// padding slots (count 0), and len(planes) is the bit length of the
	// largest count.
	planes [][]uint64
}

// boolEstimator is the per-scheme reconstruction behind a boolCore:
// MASK's tensor inverse or C&P's partial-support solve, plus the scheme
// identity for fingerprints.
type boolEstimator interface {
	name() string
	mapping() *core.BoolMapping
	fingerprint() string
	// reconstruct inverts the 2^l bit-combination pattern counts of one
	// length-l itemset into the estimated original support.
	reconstruct(counts []float64) (float64, error)
	// patternWeights returns w with estimate = Σ_idx w[idx]·counts[idx],
	// feeding the plug-in multinomial variance of Estimates.
	patternWeights(l int) ([]float64, error)
}

func newBoolCore(est boolEstimator) *boolCore {
	m := est.mapping()
	cards := make([]int, m.Schema.M())
	for j, a := range m.Schema.Attrs {
		cards[j] = a.Cardinality()
	}
	return &boolCore{est: est, mb: m.Mb, cards: cards, slot: make(map[uint64]int32)}
}

// maxBoolCellCount bounds one joint cell's multiplicity crossing a trust
// boundary: every integer up to 2^53 is exact in a float64, so counts
// and the pattern sums built from them stay exact.
const maxBoolCellCount = 1 << 53

// boolCellCount checks that a cell count read from a delta or a saved
// state is an exact positive integer the bit-planes can hold.
func boolCellCount(v float64, idx uint64) error {
	if !(v > 0 && v <= maxBoolCellCount && v == math.Trunc(v)) {
		return fmt.Errorf("%w: cell count %v at index %d is not an integer in [1, 2^53]", ErrMining, v, idx)
	}
	return nil
}

// words returns the number of 64-slot words in use.
func (c *boolCore) words() int { return (len(c.rows) + 63) >> 6 }

// slotFor returns row's slot, appending a fresh one (count 0, column
// bits set) on first sight. Called with mu held for writing.
func (c *boolCore) slotFor(row uint64) int {
	if c.slot == nil {
		c.thaw()
	}
	if s, ok := c.slot[row]; ok {
		return int(s)
	}
	s := len(c.rows)
	c.slot[row] = int32(s)
	c.rows = append(c.rows, row)
	w := s >> 6
	if s&63 == 0 {
		c.cols = append(c.cols, make([]uint64, c.mb)...)
		for b := range c.planes {
			c.planes[b] = append(c.planes[b], 0)
		}
	}
	bit := uint64(1) << uint(s&63)
	for r := row; r != 0; r &= r - 1 {
		c.cols[w*c.mb+bits.TrailingZeros64(r)] |= bit
	}
	return s
}

// count returns slot s's multiplicity, read back from the bit-planes.
func (c *boolCore) count(s int) uint64 {
	w, sh := s>>6, uint(s&63)
	var cnt uint64
	for b, plane := range c.planes {
		cnt |= (plane[w] >> sh & 1) << uint(b)
	}
	return cnt
}

// add raises slot s's multiplicity by k: a ripple-carry addition into
// the slot's bit of each plane, which touches only the planes of k's
// bits and the carry chain (one plane for most increments by 1). Called
// with mu held for writing.
func (c *boolCore) add(s int, k uint64) {
	w, bit := s>>6, uint64(1)<<uint(s&63)
	carry := false
	for b := 0; k != 0 || carry; b, k = b+1, k>>1 {
		if b == len(c.planes) {
			c.planes = append(c.planes, make([]uint64, c.words()))
		}
		p := &c.planes[b][w]
		old, in := *p&bit != 0, k&1 != 0
		if in != carry {
			*p ^= bit
		}
		carry = old && (in || carry) || in && carry
	}
}

// Schema returns the categorical schema behind the boolean encoding.
func (c *boolCore) Schema() *dataset.Schema { return c.est.mapping().Schema }

// Scheme names the core's perturbation scheme.
func (c *boolCore) Scheme() string { return c.est.name() }

// Fingerprint returns the compatibility fingerprint.
func (c *boolCore) Fingerprint() string { return c.est.fingerprint() }

// N returns the number of ingested records.
func (c *boolCore) N() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.n
}

// Ingest adds one perturbed boolean record given as its item list. Any
// set of distinct items is a valid perturbed record — MASK flips bits
// independently and C&P pastes arbitrary item sets — including the
// empty set.
func (c *boolCore) Ingest(items []Item) error {
	row, err := c.rowOf(items)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrMining, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.add(c.slotFor(row), 1)
	c.n++
	return nil
}

// boolPrepared is a validated batch of perturbed rows, one bitset per
// record — a single slice allocation per batch.
type boolPrepared struct {
	rows []uint64
}

func (p boolPrepared) recordCount() int { return len(p.rows) }

// prepareIngest validates each item-list record (items in range, no
// duplicates) and packs it into its row bitset without touching counter
// state.
func (c *boolCore) prepareIngest(records [][]Item) (preparedIngest, error) {
	rows := make([]uint64, len(records))
	for i, items := range records {
		row, err := c.rowOf(items)
		if err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrMining, i, err)
		}
		rows[i] = row
	}
	return boolPrepared{rows: rows}, nil
}

// rowOf packs one perturbed record's item list into its row bitset,
// rejecting out-of-range and duplicate items.
func (c *boolCore) rowOf(items []Item) (uint64, error) {
	m := c.est.mapping()
	var row uint64
	for _, it := range items {
		if uint(it.Attr) >= uint(len(c.cards)) || uint(it.Value) >= uint(c.cards[it.Attr]) {
			_, err := m.Bit(it.Attr, it.Value)
			return 0, err
		}
		b := m.Offsets[it.Attr] + it.Value
		if row&(1<<uint(b)) != 0 {
			return 0, fmt.Errorf("duplicate item (attr %d, value %d) in perturbed record", it.Attr, it.Value)
		}
		row |= 1 << uint(b)
	}
	return row, nil
}

// ingestPrepared folds rows [lo, hi) of a prepared batch into the joint
// histogram under one lock acquisition.
func (c *boolCore) ingestPrepared(p preparedIngest, lo, hi int) time.Duration {
	rows := p.(boolPrepared).rows[lo:hi]
	t0 := time.Now()
	c.mu.Lock()
	wait := time.Since(t0)
	defer c.mu.Unlock()
	for _, row := range rows {
		c.add(c.slotFor(row), 1)
	}
	c.n += len(rows)
	return wait
}

// Supports returns scheme-reconstructed support estimates.
func (c *boolCore) Supports(candidates []Itemset) ([]float64, error) {
	b, err := c.prepare(candidates)
	if err != nil {
		return nil, err
	}
	c.gather(b)
	return b.supports()
}

// PerturbedSupports returns raw full-match counts (the number of
// perturbed rows containing every item of the candidate) plus the
// record count of the same locked read.
func (c *boolCore) PerturbedSupports(candidates []Itemset) ([]float64, int, error) {
	b, err := c.prepare(candidates)
	if err != nil {
		return nil, 0, err
	}
	c.gather(b)
	ys, n := b.raw()
	return ys, n, nil
}

// Merge additively combines another core of the same fingerprint.
func (c *boolCore) Merge(other CounterCore) error {
	if other == nil {
		return fmt.Errorf("%w: nil counter", ErrMining)
	}
	o, ok := other.(*boolCore)
	if !ok {
		return fmt.Errorf("%w: cannot merge a %s counter into a %s counter", ErrMining, other.Scheme(), c.Scheme())
	}
	if c == o {
		return fmt.Errorf("%w: cannot merge a counter into itself", ErrMining)
	}
	if c.Fingerprint() != o.Fingerprint() {
		return fmt.Errorf("%w: cannot merge counters with different schema or perturbation contract", ErrMining)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	o.mu.RLock()
	defer o.mu.RUnlock()
	o.addSlotsInto(c)
	return nil
}

// ApplyDelta folds a replication delta into the core: every cell is a
// batch of Count perturbed rows with bitset Idx. Counts must be exact
// integers in [1, 2^53]; any other cell rejects the whole delta with
// the core untouched.
func (c *boolCore) ApplyDelta(d *CounterDelta) error {
	if err := validateDelta(d, c.Fingerprint()); err != nil {
		return err
	}
	for _, cell := range d.Cells {
		if !c.inDomain(cell.Idx) {
			return fmt.Errorf("%w: delta cell index %d outside boolean domain 2^%d", ErrMining, cell.Idx, c.mb)
		}
		if err := boolCellCount(cell.Count, cell.Idx); err != nil {
			return err
		}
	}
	c.applyCells(d.Cells, d.Records)
	return nil
}

// inDomain reports whether idx is a row bitset over the core's mb
// columns.
func (c *boolCore) inDomain(idx uint64) bool { return c.mb >= 64 || idx>>uint(c.mb) == 0 }

// applyCells adds pre-validated joint cells (positive integer counts,
// in-domain indices) and their record count under one lock acquisition.
func (c *boolCore) applyCells(cells []DeltaCell, records int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cell := range cells {
		c.add(c.slotFor(cell.Idx), uint64(cell.Count))
	}
	c.n += records
}

// addSlotsInto adds every slot of c into dst, in slot order, plus c's
// record count. Called with c's lock held for reading and dst either
// locked for writing or unshared.
func (c *boolCore) addSlotsInto(dst *boolCore) {
	if len(dst.rows) == 0 && c.slot != nil {
		// An empty destination copies an indexed layout wholesale.
		dst.slot = maps.Clone(c.slot)
		dst.rows = slices.Clone(c.rows)
		dst.cols = slices.Clone(c.cols)
		dst.planes = make([][]uint64, len(c.planes))
		for b, plane := range c.planes {
			dst.planes[b] = slices.Clone(plane)
		}
		dst.n += c.n
		return
	}
	for s, row := range c.rows {
		if k := c.count(s); k != 0 { // a folded core's padding counts 0
			dst.add(dst.slotFor(row), k)
		}
	}
	dst.n += c.n
}

// foldInto appends this core's slots to dst, a snapshot being folded
// from one or more cores: c's rows, column words and bit-planes are
// copied in starting at dst's next 64-slot word boundary, with no
// per-row work. The slots skipped to reach the boundary are padding —
// row 0 with no column or plane bits, a count of 0 that no gather
// sees — and whichever plane stack is shorter is zero-extended. A row
// present in several source cores keeps one slot per source; every
// read sums over slots, so the folded core still counts it exactly.
// dst is left without a slot index (a snapshot is only read; see
// thaw).
func (c *boolCore) foldInto(dst CounterCore) {
	d := dst.(*boolCore)
	c.mu.RLock()
	defer c.mu.RUnlock()
	d.slot = nil
	d.n += c.n
	if len(c.rows) == 0 {
		return
	}
	w0, nw := d.words(), c.words()
	d.rows = append(d.rows, make([]uint64, w0<<6-len(d.rows))...)
	d.rows = append(d.rows, c.rows...)
	d.cols = append(d.cols, c.cols...)
	for b := range max(len(d.planes), len(c.planes)) {
		if b == len(d.planes) {
			d.planes = append(d.planes, make([]uint64, w0, w0+nw))
		}
		if b < len(c.planes) {
			d.planes[b] = append(d.planes[b], c.planes[b]...)
		} else {
			d.planes[b] = append(d.planes[b], make([]uint64, nw)...)
		}
	}
}

// thaw gives a folded core back its slot index before a write: the
// slots are re-added into a fresh layout, merging a row's per-source
// slots and dropping padding. Called with mu held for writing.
func (c *boolCore) thaw() {
	t := newBoolCore(c.est)
	c.addSlotsInto(t)
	c.slot, c.rows, c.cols, c.planes = t.slot, t.rows, t.cols, t.planes
}

// addJointInto folds the sparse joint histogram into the accumulator.
func (c *boolCore) addJointInto(joint map[uint64]float64) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for s, row := range c.rows {
		if k := c.count(s); k != 0 { // a folded core's padding counts 0
			joint[row] += float64(k)
		}
	}
	return c.n
}

// boolBatch is a prepared candidate batch over boolean cores: per
// candidate, the bit positions of its items and the accumulated counts
// of every observed bit-combination pattern.
type boolBatch struct {
	est    boolEstimator
	cands  []Itemset
	bitPos [][]int     // item bit positions, nil for the empty itemset
	counts [][]float64 // 2^l pattern counts, nil for the empty itemset
	total  int
}

// prepare validates the batch against the schema and precomputes each
// candidate's bit positions.
func (c *boolCore) prepare(candidates []Itemset) (counterBatch, error) {
	m := c.est.mapping()
	b := &boolBatch{
		est:    c.est,
		cands:  candidates,
		bitPos: make([][]int, len(candidates)),
		counts: make([][]float64, len(candidates)),
	}
	for i, cand := range candidates {
		// Validate enforces canonical strictly-increasing attribute
		// order, exactly as the gamma routing does.
		if err := cand.Validate(m.Schema); err != nil {
			return nil, err
		}
		l := cand.Len()
		if l == 0 {
			continue
		}
		if l > 20 {
			return nil, fmt.Errorf("%w: itemset length %d too large", ErrMining, l)
		}
		pos := make([]int, l)
		for k, it := range cand {
			bit, err := m.Bit(it.Attr, it.Value)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrMining, err)
			}
			pos[k] = bit
		}
		b.bitPos[i] = pos
		b.counts[i] = make([]float64, 1<<uint(l))
	}
	return b, nil
}

// denseMaxLen is the longest itemset whose pattern counts are gathered
// word-parallel: its 2^l ≤ 64 slot groups per word are all
// materialized.
const denseMaxLen = 6

// gather folds this core's pattern counts into the batch under the
// core's read lock, one sweep of the slots per candidate.
func (c *boolCore) gather(cb counterBatch) {
	b := cb.(*boolBatch)
	c.mu.RLock()
	defer c.mu.RUnlock()
	b.total += c.n
	for i, pos := range b.bitPos {
		switch {
		case pos == nil:
		case len(pos) <= denseMaxLen:
			c.gatherDense(pos, b.counts[i])
		default:
			c.gatherSparse(pos, b.counts[i])
		}
	}
}

// gatherDense materializes all 2^l ≤ 64 pattern groups of each word:
// l rounds of AND / AND-NOT by the candidate's column words split the
// word's slots by pattern, and a group's count is the sum of its
// popcounts against the word's non-zero bit-planes, each shifted by its
// plane's weight. Unused slots carry no plane bits, so they count
// nothing. Items are split last-first, so group j of the final round
// is exactly pattern index j (bit k set ⇔ item k present).
func (c *boolCore) gatherDense(pos []int, out []float64) {
	var acc, g [1 << denseMaxLen]uint64
	var planes [64]uint64
	var weights [64]uint
	for w, nw := 0, c.words(); w < nw; w++ {
		np := 0
		for b, plane := range c.planes {
			if plane[w] != 0 {
				planes[np], weights[np] = plane[w], uint(b)
				np++
			}
		}
		cols := c.cols[w*c.mb : (w+1)*c.mb]
		g[0] = ^uint64(0)
		n := 1
		for k := len(pos) - 1; k >= 0; k-- {
			col := cols[pos[k]]
			for j := n - 1; j >= 0; j-- {
				g[2*j+1] = g[j] & col
				g[2*j] = g[j] &^ col
			}
			n *= 2
		}
		for j := 0; j < n; j++ {
			for q := 0; q < np; q++ {
				acc[j] += uint64(bits.OnesCount64(g[j]&planes[q])) << weights[q]
			}
		}
	}
	for j := range out {
		out[j] += float64(acc[j])
	}
}

// gatherSparse serves itemsets longer than denseMaxLen. Their 2^l
// groups per word would be almost all empty, so it visits each slot
// once instead and reads the pattern index straight off the slot's row.
func (c *boolCore) gatherSparse(pos []int, out []float64) {
	for s, row := range c.rows {
		idx := 0
		for k, p := range pos {
			idx |= int(row>>uint(p)&1) << uint(k)
		}
		out[idx] += float64(c.count(s))
	}
}

func (b *boolBatch) records() int { return b.total }

// supports resolves each candidate with the scheme's reconstruction;
// the empty itemset is answered exactly.
func (b *boolBatch) supports() ([]float64, error) {
	out := make([]float64, len(b.cands))
	for i := range b.cands {
		if b.bitPos[i] == nil {
			out[i] = float64(b.total)
			continue
		}
		est, err := b.est.reconstruct(b.counts[i])
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrMining, err)
		}
		out[i] = est
	}
	return out, nil
}

// raw resolves each candidate's full-match count — the all-bits-present
// pattern cell, the boolean analogue of gamma's Y_L.
func (b *boolBatch) raw() ([]float64, int) {
	out := make([]float64, len(b.cands))
	for i := range b.cands {
		if b.bitPos[i] == nil {
			out[i] = float64(b.total)
			continue
		}
		out[i] = b.counts[i][len(b.counts[i])-1]
	}
	return out, b.total
}

// estimates resolves each candidate into (point estimate, stderr). The
// point estimate is the scheme's exact reconstruction — bit-identical to
// the offline counters given the same rows — and the standard error is
// the plug-in multinomial variance of the linear estimator
// Σ w·Y: Var ≈ Σ w²·Y − X̂²/n.
func (b *boolBatch) estimates() ([]PointEstimate, error) {
	if b.total <= 0 {
		return nil, fmt.Errorf("%w: empty counter", ErrMining)
	}
	out := make([]PointEstimate, len(b.cands))
	weights := make(map[int][]float64)
	for i := range b.cands {
		pos := b.bitPos[i]
		if pos == nil {
			// Every record matches; exact, no reconstruction noise.
			out[i] = PointEstimate{Count: float64(b.total)}
			continue
		}
		est, err := b.est.reconstruct(b.counts[i])
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrMining, err)
		}
		l := len(pos)
		w, ok := weights[l]
		if !ok {
			w, err = b.est.patternWeights(l)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrMining, err)
			}
			weights[l] = w
		}
		var sumW2Y float64
		for idx, y := range b.counts[i] {
			sumW2Y += w[idx] * w[idx] * y
		}
		variance := sumW2Y - est*est/float64(b.total)
		if variance < 0 {
			variance = 0
		}
		out[i] = PointEstimate{Count: est, StdErr: math.Sqrt(variance)}
	}
	return out, nil
}

// maskEstimator adapts core.MaskScheme to the boolCore contract.
type maskEstimator struct {
	s *core.MaskScheme
}

func (e maskEstimator) name() string               { return SchemeMask }
func (e maskEstimator) mapping() *core.BoolMapping { return e.s.Mapping }

func (e maskEstimator) fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "scheme=%s;", SchemeMask)
	fingerprintSchema(h, e.s.Mapping.Schema)
	fmt.Fprintf(h, "p=%g;Mb=%d", e.s.P, e.s.Mapping.Mb)
	return hex.EncodeToString(h.Sum(nil))
}

func (e maskEstimator) reconstruct(counts []float64) (float64, error) {
	return e.s.ReconstructPatternCounts(counts)
}

func (e maskEstimator) patternWeights(l int) ([]float64, error) {
	return e.s.PatternWeights(l)
}

// cutPasteEstimator adapts core.CutPasteScheme to the boolCore
// contract. Pattern counts are folded to partial supports (counts per
// number of present itemset items) before the solve, so the estimate is
// computed by exactly the arithmetic of the offline CutPasteCounter.
type cutPasteEstimator struct {
	s *core.CutPasteScheme
}

func (e cutPasteEstimator) name() string               { return SchemeCutPaste }
func (e cutPasteEstimator) mapping() *core.BoolMapping { return e.s.Mapping }

func (e cutPasteEstimator) fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "scheme=%s;", SchemeCutPaste)
	fingerprintSchema(h, e.s.Mapping.Schema)
	fmt.Fprintf(h, "K=%d;rho=%g;Mb=%d", e.s.K, e.s.Rho, e.s.Mapping.Mb)
	return hex.EncodeToString(h.Sum(nil))
}

func (e cutPasteEstimator) reconstruct(counts []float64) (float64, error) {
	l := bits.TrailingZeros(uint(len(counts)))
	y := make([]float64, l+1)
	for idx, cnt := range counts {
		y[bits.OnesCount(uint(idx))] += cnt
	}
	return e.s.ReconstructPartialCounts(y)
}

func (e cutPasteEstimator) patternWeights(l int) ([]float64, error) {
	// The C&P estimate is linear in the partial supports; lifted to
	// pattern space, every pattern with q set bits carries the q-th
	// partial weight.
	v, err := e.s.PartialWeights(l)
	if err != nil {
		return nil, err
	}
	w := make([]float64, 1<<uint(l))
	for idx := range w {
		w[idx] = v[bits.OnesCount(uint(idx))]
	}
	return w, nil
}

// fingerprintSchema writes the schema identity — name plus every
// attribute with its ordered category list — into a fingerprint hash,
// shared by every scheme's fingerprint.
func fingerprintSchema(h io.Writer, schema *dataset.Schema) {
	fmt.Fprintf(h, "schema=%s;M=%d;", schema.Name, schema.M())
	for _, a := range schema.Attrs {
		fmt.Fprintf(h, "attr=%s:%s;", a.Name, strings.Join(a.Categories, "\x1f"))
	}
}
