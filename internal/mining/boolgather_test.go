package mining

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/dataset"
)

// The columnar boolean core must reproduce, count for count, the joint
// histogram scan it replaced. scanPatternCounts is that scan, kept as
// the oracle: one pass over the distinct perturbed rows, each row's
// multiplicity added to the pattern its candidate bits select.
func scanPatternCounts(cells []DeltaCell, pos []int) []float64 {
	counts := make([]float64, 1<<uint(len(pos)))
	for _, cell := range cells {
		idx := 0
		for k, bit := range pos {
			if cell.Idx&(1<<uint(bit)) != 0 {
				idx |= 1 << uint(k)
			}
		}
		counts[idx] += cell.Count
	}
	return counts
}

// wideBinarySchema has 20 binary attributes: Mb = 40 boolean columns
// and itemsets up to the 20-item length cap.
func wideBinarySchema(t testing.TB) *dataset.Schema {
	t.Helper()
	attrs := make([]dataset.Attribute, 20)
	for j := range attrs {
		attrs[j] = dataset.Attribute{Name: fmt.Sprintf("b%02d", j), Categories: []string{"no", "yes"}}
	}
	s, err := dataset.NewSchema("wide-binary", attrs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// boolSchemes returns the MASK and C&P contracts over schema.
func boolSchemes(t testing.TB, schema *dataset.Schema) []CounterScheme {
	t.Helper()
	var out []CounterScheme
	for _, name := range []string{SchemeMask, SchemeCutPaste} {
		s, err := SchemeForContract(name, schema, liveTestGamma)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// randomItemset draws a canonical itemset of length l over schema.
func randomItemset(schema *dataset.Schema, l int, rng *rand.Rand) Itemset {
	attrs := rng.Perm(schema.M())[:l]
	sort.Ints(attrs)
	set := make(Itemset, l)
	for k, a := range attrs {
		set[k] = Item{Attr: a, Value: rng.Intn(schema.Attrs[a].Cardinality())}
	}
	return set
}

// gatherCounts returns the per-candidate pattern counts one gather of
// core produces.
func gatherCounts(t *testing.T, c CounterCore, cands []Itemset) [][]float64 {
	t.Helper()
	b, err := c.prepare(cands)
	if err != nil {
		t.Fatal(err)
	}
	c.gather(b)
	return b.(*boolBatch).counts
}

// sortedCells returns a joint histogram as sorted cells.
func sortedCells(joint map[uint64]float64) []DeltaCell {
	cells := make([]DeltaCell, 0, len(joint))
	for idx, cnt := range joint {
		cells = append(cells, DeltaCell{Idx: idx, Count: cnt})
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].Idx < cells[j].Idx })
	return cells
}

// coreCells returns a core's joint histogram as sorted cells.
func coreCells(c CounterCore) []DeltaCell {
	joint := make(map[uint64]float64)
	c.addJointInto(joint)
	return sortedCells(joint)
}

func cellsRecords(cells []DeltaCell) int {
	n := 0
	for _, c := range cells {
		n += int(c.Count)
	}
	return n
}

// TestBoolGatherMatchesScan builds cores whose slot counts straddle the
// 64-slot word boundary, with multiplicities that carry across several
// bit-planes (large counts applied as a full and an incremental delta,
// then bumped by single ingests), and checks every pattern count of
// every itemset length against the scan oracle with ==.
func TestBoolGatherMatchesScan(t *testing.T) {
	for _, schema := range []*dataset.Schema{deltaTestSchema(t), wideBinarySchema(t)} {
		for _, scheme := range boolSchemes(t, schema) {
			for _, slots := range []int{0, 1, 63, 64, 65} {
				t.Run(fmt.Sprintf("%s/%s/slots=%d", schema.Name, scheme.Name(), slots), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(slots) + 7))
					c := scheme.NewCore().(*boolCore)
					joint := make(map[uint64]float64)
					rows := make([]uint64, 0, slots)
					for len(rows) < slots {
						row := rng.Uint64() & (1<<uint(c.mb) - 1)
						if _, dup := joint[row]; dup {
							continue
						}
						joint[row] = 0
						rows = append(rows, row)
					}
					// Thirds: a full delta (the restored checkpoint), an
					// incremental delta, and single ingests. Delta counts
					// are 2^k - 1 for k up to 40, so the ingests below
					// carry through every plane.
					var restored, delta []DeltaCell
					for i, row := range rows {
						cnt := float64(uint64(1)<<uint(rng.Intn(41)) - 1)
						if cnt == 0 {
							cnt = 1
						}
						switch i % 3 {
						case 0:
							restored = append(restored, DeltaCell{Idx: row, Count: cnt})
						case 1:
							delta = append(delta, DeltaCell{Idx: row, Count: cnt})
						default:
							continue
						}
						joint[row] += cnt
					}
					if err := c.ApplyDelta(&CounterDelta{Fingerprint: c.Fingerprint(), Records: cellsRecords(restored), Cells: restored}); err != nil {
						t.Fatal(err)
					}
					if err := c.ApplyDelta(&CounterDelta{Fingerprint: c.Fingerprint(), Records: cellsRecords(delta), Cells: delta}); err != nil {
						t.Fatal(err)
					}
					for _, row := range rows {
						if err := c.Ingest(rowItems(c.est.mapping(), row)); err != nil {
							t.Fatal(err)
						}
						joint[row]++
					}
					want := sortedCells(joint)
					if got := coreCells(c); !reflect.DeepEqual(got, want) {
						t.Fatalf("core cells differ from the joint histogram")
					}

					var cands []Itemset
					for l := 0; l <= schema.M(); l++ {
						reps := 3
						if l > 8 {
							reps = 1 // 2^l pattern arrays
						}
						for r := 0; r < reps; r++ {
							cands = append(cands, randomItemset(schema, l, rng))
						}
					}
					got := gatherCounts(t, c, cands)
					for i, cand := range cands {
						if cand.Len() == 0 {
							continue
						}
						pos, err := itemBits(c.est.mapping(), cand)
						if err != nil {
							t.Fatal(err)
						}
						wantCounts := scanPatternCounts(want, pos)
						for idx := range wantCounts {
							if got[i][idx] != wantCounts[idx] {
								t.Fatalf("itemset %v pattern %d: count %v, scan %v", cand, idx, got[i][idx], wantCounts[idx])
							}
						}
					}
				})
			}
		}
	}
}

// TestBoolShardedAndWindowedMatchSingle spreads one stream of repeated
// rows over a single core, a sharded counter, and a windowed ring that
// rotates mid-stream, and requires identical pattern counts (also from
// their folded snapshots) and estimates (==) from all three.
func TestBoolShardedAndWindowedMatchSingle(t *testing.T) {
	for _, schema := range []*dataset.Schema{deltaTestSchema(t), wideBinarySchema(t)} {
		for _, scheme := range boolSchemes(t, schema) {
			t.Run(schema.Name+"/"+scheme.Name(), func(t *testing.T) {
				rng := rand.New(rand.NewSource(11))
				single := scheme.NewCore().(*boolCore)
				sharded, err := NewShardedCounter(scheme, 3)
				if err != nil {
					t.Fatal(err)
				}
				clock := time.Unix(1_700_000_000, 0)
				windowed, err := NewWindowedCounter(scheme, 2, 4, time.Minute)
				if err != nil {
					t.Fatal(err)
				}
				windowed.SetNowFunc(func() time.Time { return clock })
				// 130 distinct rows, each repeated up to 300 times, so
				// every counter holds multi-word slots and several planes.
				var records [][]Item
				for i := 0; i < 130; i++ {
					items := rowItems(single.est.mapping(), rng.Uint64()&(1<<uint(single.mb)-1))
					for r := rng.Intn(300) + 1; r > 0; r-- {
						records = append(records, items)
					}
				}
				rng.Shuffle(len(records), func(i, j int) { records[i], records[j] = records[j], records[i] })
				// The batches span three minutes of the four-minute ring, so
				// the ring rotates mid-stream without expiring anything.
				const batchLen = 997
				step := 3 * time.Minute / time.Duration((len(records)+batchLen-1)/batchLen)
				for lo := 0; lo < len(records); lo += batchLen {
					batch := records[lo:min(lo+batchLen, len(records))]
					for _, items := range batch {
						if err := single.Ingest(items); err != nil {
							t.Fatal(err)
						}
					}
					if err := sharded.IngestBatch(batch); err != nil {
						t.Fatal(err)
					}
					if err := windowed.IngestBatch(batch); err != nil {
						t.Fatal(err)
					}
					clock = clock.Add(step)
				}

				var cands []Itemset
				for l := 0; l <= min(schema.M(), 7); l++ {
					for r := 0; r < 4; r++ {
						cands = append(cands, randomItemset(schema, l, rng))
					}
				}
				want := gatherCounts(t, single, cands)
				sb, err := sharded.batch(cands)
				if err != nil {
					t.Fatal(err)
				}
				windowed.mu.RLock()
				wb, err := windowed.gatherLocked(cands, len(windowed.ring))
				windowed.mu.RUnlock()
				if err != nil {
					t.Fatal(err)
				}
				// Snapshots fold shards (and buckets) into one core; their
				// slots must count the same.
				shardSnap, _ := sharded.snapshotCore()
				ringSnap, _ := windowed.SnapshotWindowVersioned(0)
				shardSnapCounts := gatherCounts(t, shardSnap, cands)
				ringSnapCounts := gatherCounts(t, ringSnap.(CounterCore), cands)
				for i := range cands {
					if !reflect.DeepEqual(shardSnapCounts[i], want[i]) || !reflect.DeepEqual(ringSnapCounts[i], want[i]) {
						t.Fatalf("snapshot pattern counts of %v differ from single core", cands[i])
					}
					if !reflect.DeepEqual(sb.(*boolBatch).counts[i], want[i]) {
						t.Fatalf("sharded pattern counts of %v differ from single core", cands[i])
					}
					if !reflect.DeepEqual(wb.(*boolBatch).counts[i], want[i]) {
						t.Fatalf("windowed pattern counts of %v differ from single core", cands[i])
					}
				}

				b, err := single.prepare(cands)
				if err != nil {
					t.Fatal(err)
				}
				single.gather(b)
				wantEst, err := b.estimates()
				if err != nil {
					t.Fatal(err)
				}
				shEst, n, err := sharded.Estimates(cands)
				if err != nil || n != len(records) {
					t.Fatalf("sharded estimates: n=%d err=%v", n, err)
				}
				wEst, wn, _, err := windowed.EstimatesWindow(cands, 0)
				if err != nil || wn != len(records) {
					t.Fatalf("windowed estimates: n=%d err=%v", wn, err)
				}
				if !reflect.DeepEqual(shEst, wantEst) || !reflect.DeepEqual(wEst, wantEst) {
					t.Fatal("sharded or windowed estimates differ from the single core")
				}
			})
		}
	}
}

// TestBoolCellCountsMustBeIntegers pins the trust boundary the
// bit-planes rely on: a delta (replicated, logged, or checkpointed)
// whose cell counts are not exact integers in [1, 2^53] is rejected and
// the counter is untouched.
func TestBoolCellCountsMustBeIntegers(t *testing.T) {
	schema := deltaTestSchema(t)
	bad := []struct {
		name    string
		cells   []DeltaCell
		records int
	}{
		// The halves sum to the record count, so only the integer check
		// can catch them.
		{"half", []DeltaCell{{Idx: 1, Count: 0.5}, {Idx: 2, Count: 1.5}}, 2},
		{"nan", []DeltaCell{{Idx: 1, Count: math.NaN()}}, 1},
		{"inf", []DeltaCell{{Idx: 1, Count: math.Inf(1)}}, 1},
		{"2^60", []DeltaCell{{Idx: 1, Count: math.Ldexp(1, 60)}}, 1 << 60},
	}
	for _, scheme := range boolSchemes(t, schema) {
		for _, tc := range bad {
			t.Run(scheme.Name()+"/"+tc.name, func(t *testing.T) {
				c := scheme.NewCore().(*boolCore)
				if err := c.Ingest([]Item{{Attr: 0, Value: 1}, {Attr: 2, Value: 3}}); err != nil {
					t.Fatal(err)
				}
				before := coreCells(c)
				err := c.ApplyDelta(&CounterDelta{Fingerprint: c.Fingerprint(), Records: tc.records, Cells: tc.cells})
				if !errors.Is(err, ErrMining) {
					t.Fatalf("ApplyDelta accepted counts %v (err %v)", tc.cells, err)
				}
				if after := coreCells(c); !reflect.DeepEqual(after, before) || c.N() != 1 {
					t.Fatalf("rejected input changed the counter: %+v -> %+v", before, after)
				}
			})
		}
	}
}

// TestBoolFoldLayoutMatchesSingle folds cores holding 1, 63, 64 and 65
// slots, so each appended core starts a fresh word after 0, 63, 1 and
// 0 padding slots. Their counts need different plane heights (1 beside
// 2^k−1, the tallest stack in the first core), and some rows repeat
// across cores, so the folded core holds them once per source. The
// sharded and the windowed full-ring snapshots must count, estimate and
// mine exactly like one core holding every row, carry no zero-count
// cell in their joint histogram, and become a normal core again on a
// write.
func TestBoolFoldLayoutMatchesSingle(t *testing.T) {
	sizes := []int{1, 63, 64, 65}
	heights := []int{20, 1, 10, 30} // plane height of each core's even cells
	for _, schema := range []*dataset.Schema{deltaTestSchema(t), wideBinarySchema(t)} {
		for _, scheme := range boolSchemes(t, schema) {
			t.Run(schema.Name+"/"+scheme.Name(), func(t *testing.T) {
				rng := rand.New(rand.NewSource(5))
				single := scheme.NewCore().(*boolCore)
				sharded, err := NewShardedCounter(scheme, len(sizes))
				if err != nil {
					t.Fatal(err)
				}
				clock := time.Unix(1_700_000_000, 0)
				windowed, err := NewWindowedCounter(scheme, 1, len(sizes), time.Minute)
				if err != nil {
					t.Fatal(err)
				}
				windowed.SetNowFunc(func() time.Time { return clock })
				var seen []uint64
				for i, size := range sizes {
					var cells []DeltaCell
					inCore := make(map[uint64]bool)
					for len(cells) < size {
						row := rng.Uint64() & (1<<uint(single.mb) - 1)
						if len(seen) > 0 && rng.Intn(4) == 0 {
							row = seen[rng.Intn(len(seen))]
						}
						if inCore[row] {
							continue
						}
						inCore[row] = true
						seen = append(seen, row)
						cnt := 1.0
						if len(cells)%2 == 0 {
							cnt = float64(uint64(1)<<uint(heights[i]) - 1)
						}
						cells = append(cells, DeltaCell{Idx: row, Count: cnt})
					}
					d := &CounterDelta{Fingerprint: single.Fingerprint(), Records: cellsRecords(cells), Cells: cells}
					for _, c := range []CounterCore{single, sharded.shards[i], windowed.ring[i].shards[0]} {
						if err := c.ApplyDelta(d); err != nil {
							t.Fatal(err)
						}
					}
					sharded.total.Add(int64(d.Records))
					sharded.version.Add(uint64(d.Records))
				}
				if len(seen) == len(coreCells(single)) {
					t.Fatal("no row repeats across cores")
				}

				var cands []Itemset
				for l := 0; l <= min(schema.M(), 8); l++ {
					for r := 0; r < 4; r++ {
						cands = append(cands, randomItemset(schema, l, rng))
					}
				}
				wantCells := coreCells(single)
				wantCounts := gatherCounts(t, single, cands)
				wantSup, err := single.Supports(cands)
				if err != nil {
					t.Fatal(err)
				}
				opts := Options{CandidateRelaxation: 1, MaxLen: 3}
				wantMine, err := AprioriWithOptions(single, 0.05, opts)
				if err != nil {
					t.Fatal(err)
				}

				if len(wantMine.ByLength) < 2 {
					t.Fatalf("mine found levels %v; need at least two", wantMine.Counts())
				}
				shardSnap, _ := sharded.SnapshotVersioned()
				ringSnap, _ := windowed.SnapshotWindowVersioned(0)
				if got := len(shardSnap.(*boolCore).rows); got != 3*64+65 {
					t.Fatalf("sharded snapshot holds %d slots, want %d (each core from a word boundary)", got, 3*64+65)
				}
				for name, snap := range map[string]*boolCore{"sharded": shardSnap.(*boolCore), "windowed": ringSnap.(*boolCore)} {
					if snap.N() != single.N() {
						t.Fatalf("%s snapshot N = %d, want %d", name, snap.N(), single.N())
					}
					if !reflect.DeepEqual(gatherCounts(t, snap, cands), wantCounts) {
						t.Fatalf("%s snapshot pattern counts differ from the single core", name)
					}
					sup, err := snap.Supports(cands)
					if err != nil || !reflect.DeepEqual(sup, wantSup) {
						t.Fatalf("%s snapshot supports differ from the single core (err %v)", name, err)
					}
					mine, err := AprioriWithOptions(snap, 0.05, opts)
					if err != nil || !reflect.DeepEqual(mine, wantMine) {
						t.Fatalf("%s snapshot mines differently from the single core (err %v)", name, err)
					}
					if got := coreCells(snap); !reflect.DeepEqual(got, wantCells) {
						t.Fatalf("%s snapshot joint histogram differs from the single core (zero-count padding?)", name)
					}
				}
				d, err := sharded.DeltaSince(0)
				if err != nil {
					t.Fatal(err)
				}
				for _, cell := range d.Cells {
					if cell.Count == 0 {
						t.Fatalf("DeltaSince(0) carries a zero-count cell at %d", cell.Idx)
					}
				}
				if got := sortedCells(cellsMap(d.Cells)); !reflect.DeepEqual(got, wantCells) || d.Records != single.N() {
					t.Fatal("DeltaSince(0) after snapshotting differs from the single core")
				}

				// A write thaws the snapshot into an indexed core: one slot
				// per distinct row, counting like the single core.
				snap := shardSnap.(*boolCore)
				row := seen[0]
				for _, c := range []*boolCore{single, snap} {
					if err := c.Ingest(rowItems(c.est.mapping(), row)); err != nil {
						t.Fatal(err)
					}
				}
				if snap.slot == nil || len(snap.rows) != len(snap.slot) || len(snap.rows) != len(single.rows) {
					t.Fatalf("written snapshot holds %d slots for %d distinct rows", len(snap.rows), len(single.rows))
				}
				if !reflect.DeepEqual(coreCells(snap), coreCells(single)) || !reflect.DeepEqual(gatherCounts(t, snap, cands), gatherCounts(t, single, cands)) {
					t.Fatal("written snapshot counts differ from the single core")
				}
			})
		}
	}
}

// cellsMap sums delta cells into a joint histogram.
func cellsMap(cells []DeltaCell) map[uint64]float64 {
	joint := make(map[uint64]float64, len(cells))
	for _, c := range cells {
		joint[c.Idx] += c.Count
	}
	return joint
}
