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
