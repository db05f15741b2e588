package mining

import (
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// The cross-scheme property suite: every LiveCounter scheme — gamma,
// MASK, and cut-and-paste — must satisfy the same contracts the gamma
// counter has always been tested against: sharded-vs-single-core
// equivalence at filter arities 0..3, live-vs-offline estimator
// equivalence, persist/restore round-trips across shard counts, and
// race-free concurrent ingest+query. The suite runs every scheme
// through one harness, which is the point of the redesign.

const liveTestGamma = 19.0

// liveScheme bundles one scheme contract with a perturbed-record
// generator (what a client would submit) and the scheme's offline
// counter over the same perturbed data.
type liveScheme struct {
	name    string
	scheme  CounterScheme
	perturb func(t *testing.T, db *dataset.Database, rng *rand.Rand) [][]Item
	offline func(t *testing.T, db *dataset.Database, rng *rand.Rand) SupportCounter
}

// rowItems converts a perturbed boolean row into the item list Ingest
// accepts.
func rowItems(m *core.BoolMapping, row uint64) []Item {
	var items []Item
	for b := row; b != 0; b &= b - 1 {
		bit := bits.TrailingZeros64(b)
		for j := m.Schema.M() - 1; j >= 0; j-- {
			if bit >= m.Offsets[j] {
				items = append(items, Item{Attr: j, Value: bit - m.Offsets[j]})
				break
			}
		}
	}
	return items
}

// boolRows perturbs db with the given perturb function and returns the
// item lists to ingest.
func boolRowItems(m *core.BoolMapping, rows []uint64) [][]Item {
	out := make([][]Item, len(rows))
	for i, row := range rows {
		out[i] = rowItems(m, row)
	}
	return out
}

// liveSchemes builds all three scheme contracts over one schema. The
// perturbation streams are seeded per scheme, and perturb/offline use
// the SAME stream seed so the live counter and the offline counter see
// identical perturbed rows.
func liveSchemes(t *testing.T, schema *dataset.Schema) []liveScheme {
	t.Helper()
	gammaScheme, err := SchemeForContract(SchemeGamma, schema, liveTestGamma)
	if err != nil {
		t.Fatal(err)
	}
	maskScheme, err := SchemeForContract(SchemeMask, schema, liveTestGamma)
	if err != nil {
		t.Fatal(err)
	}
	cutScheme, err := SchemeForContract(SchemeCutPaste, schema, liveTestGamma)
	if err != nil {
		t.Fatal(err)
	}
	gs := gammaScheme.(*GammaScheme)
	ms := maskScheme.(*MaskCounterScheme).Mask()
	cs := cutScheme.(*CutPasteCounterScheme).CutPaste()
	return []liveScheme{
		{
			name:   SchemeGamma,
			scheme: gammaScheme,
			perturb: func(t *testing.T, db *dataset.Database, rng *rand.Rand) [][]Item {
				p, err := core.NewGammaPerturber(schema, gs.Matrix())
				if err != nil {
					t.Fatal(err)
				}
				pdb, err := core.PerturbDatabase(db, p, rng)
				if err != nil {
					t.Fatal(err)
				}
				out := make([][]Item, pdb.N())
				for i, rec := range pdb.Records {
					out[i] = recordItems(rec)
				}
				return out
			},
			offline: func(t *testing.T, db *dataset.Database, rng *rand.Rand) SupportCounter {
				p, err := core.NewGammaPerturber(schema, gs.Matrix())
				if err != nil {
					t.Fatal(err)
				}
				pdb, err := core.PerturbDatabase(db, p, rng)
				if err != nil {
					t.Fatal(err)
				}
				c, err := NewGammaCounter(pdb, gs.Matrix())
				if err != nil {
					t.Fatal(err)
				}
				return c
			},
		},
		{
			name:   SchemeMask,
			scheme: maskScheme,
			perturb: func(t *testing.T, db *dataset.Database, rng *rand.Rand) [][]Item {
				bdb, err := ms.PerturbDatabase(db, rng)
				if err != nil {
					t.Fatal(err)
				}
				return boolRowItems(ms.Mapping, bdb.Rows)
			},
			offline: func(t *testing.T, db *dataset.Database, rng *rand.Rand) SupportCounter {
				bdb, err := ms.PerturbDatabase(db, rng)
				if err != nil {
					t.Fatal(err)
				}
				return &MaskCounter{Perturbed: bdb, Scheme: ms}
			},
		},
		{
			name:   SchemeCutPaste,
			scheme: cutScheme,
			perturb: func(t *testing.T, db *dataset.Database, rng *rand.Rand) [][]Item {
				bdb, err := cs.PerturbDatabase(db, rng)
				if err != nil {
					t.Fatal(err)
				}
				return boolRowItems(cs.Mapping, bdb.Rows)
			},
			offline: func(t *testing.T, db *dataset.Database, rng *rand.Rand) SupportCounter {
				bdb, err := cs.PerturbDatabase(db, rng)
				if err != nil {
					t.Fatal(err)
				}
				return &CutPasteCounter{Perturbed: bdb, Scheme: cs}
			},
		},
	}
}

// probeItemsets enumerates filters of arity 0..3 over the schema (a
// deterministic spread of attribute subsets and values).
func probeItemsets(t *testing.T, schema *dataset.Schema) []Itemset {
	t.Helper()
	sets := []Itemset{{}}
	m := schema.M()
	for a := 0; a < m; a++ {
		for v := 0; v < schema.Attrs[a].Cardinality(); v++ {
			sets = append(sets, Itemset{{Attr: a, Value: v}})
		}
	}
	for a := 0; a < m; a++ {
		for b := a + 1; b < m; b++ {
			sets = append(sets, Itemset{{Attr: a, Value: a % schema.Attrs[a].Cardinality()}, {Attr: b, Value: b % schema.Attrs[b].Cardinality()}})
		}
	}
	for a := 0; a+2 < m; a++ {
		sets = append(sets, Itemset{
			{Attr: a, Value: 0},
			{Attr: a + 1, Value: schema.Attrs[a+1].Cardinality() - 1},
			{Attr: a + 2, Value: 1 % schema.Attrs[a+2].Cardinality()},
		})
	}
	return sets
}

// TestLiveSchemesShardedMatchesSingle: for every scheme, a 5-way sharded
// counter and a single core fed the same perturbed stream must agree on
// Supports, PerturbedSupports, and Estimates to 1e-9 at arities 0..3 —
// integer-valued counts make the shard fold exact, whatever the scheme.
func TestLiveSchemesShardedMatchesSingle(t *testing.T) {
	db := buildSkewedDB(t, 4000, 170)
	schema := db.Schema
	probes := probeItemsets(t, schema)
	for _, ls := range liveSchemes(t, schema) {
		t.Run(ls.name, func(t *testing.T) {
			records := ls.perturb(t, db, rand.New(rand.NewSource(171)))
			sharded, err := NewShardedCounter(ls.scheme, 5)
			if err != nil {
				t.Fatal(err)
			}
			single, err := NewShardedCounter(ls.scheme, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, items := range records {
				if err := sharded.Ingest(items); err != nil {
					t.Fatal(err)
				}
				if err := single.Ingest(items); err != nil {
					t.Fatal(err)
				}
			}
			if sharded.N() != len(records) || single.N() != len(records) {
				t.Fatalf("record counts %d/%d, want %d", sharded.N(), single.N(), len(records))
			}
			if sharded.Scheme() != ls.name {
				t.Fatalf("scheme %q, want %q", sharded.Scheme(), ls.name)
			}

			sSup, err := sharded.Supports(probes)
			if err != nil {
				t.Fatal(err)
			}
			oSup, err := single.Supports(probes)
			if err != nil {
				t.Fatal(err)
			}
			sRaw, sn, err := sharded.PerturbedSupports(probes)
			if err != nil {
				t.Fatal(err)
			}
			oRaw, on, err := single.PerturbedSupports(probes)
			if err != nil {
				t.Fatal(err)
			}
			if sn != on {
				t.Fatalf("sweep records %d vs %d", sn, on)
			}
			sEst, _, err := sharded.Estimates(probes)
			if err != nil {
				t.Fatal(err)
			}
			oEst, _, err := single.Estimates(probes)
			if err != nil {
				t.Fatal(err)
			}
			for i, probe := range probes {
				if math.Abs(sSup[i]-oSup[i]) > 1e-9 {
					t.Errorf("%s support %v vs %v", probe.Key(), sSup[i], oSup[i])
				}
				if math.Abs(sRaw[i]-oRaw[i]) > 1e-9 {
					t.Errorf("%s raw %v vs %v", probe.Key(), sRaw[i], oRaw[i])
				}
				if math.Abs(sEst[i].Count-oEst[i].Count) > 1e-9 || math.Abs(sEst[i].StdErr-oEst[i].StdErr) > 1e-9 {
					t.Errorf("%s estimate (%v±%v) vs (%v±%v)", probe.Key(), sEst[i].Count, sEst[i].StdErr, oEst[i].Count, oEst[i].StdErr)
				}
				if math.Abs(sEst[i].Count-sSup[i]) > 1e-9 {
					t.Errorf("%s estimate %v disagrees with support %v", probe.Key(), sEst[i].Count, sSup[i])
				}
			}
		})
	}
}

// TestLiveSchemesMatchOfflineCounters: the live counter must reproduce
// its scheme's OFFLINE counter (the paper-faithful record-scan
// reconstruction) to 1e-9 over the same perturbed rows — the guarantee
// that turning a scheme live changed its plumbing, not its estimator.
func TestLiveSchemesMatchOfflineCounters(t *testing.T) {
	db := buildSkewedDB(t, 3000, 180)
	schema := db.Schema
	probes := probeItemsets(t, schema)
	for _, ls := range liveSchemes(t, schema) {
		t.Run(ls.name, func(t *testing.T) {
			const seed = 181 // same stream for live and offline
			records := ls.perturb(t, db, rand.New(rand.NewSource(seed)))
			offline := ls.offline(t, db, rand.New(rand.NewSource(seed)))
			live, err := NewShardedCounter(ls.scheme, 4)
			if err != nil {
				t.Fatal(err)
			}
			for _, items := range records {
				if err := live.Ingest(items); err != nil {
					t.Fatal(err)
				}
			}
			want, err := offline.Supports(probes)
			if err != nil {
				t.Fatal(err)
			}
			got, err := live.Supports(probes)
			if err != nil {
				t.Fatal(err)
			}
			for i, probe := range probes {
				if math.Abs(want[i]-got[i]) > 1e-9 {
					t.Errorf("%s: live %v, offline %v", probe.Key(), got[i], want[i])
				}
			}
		})
	}
}

// TestLiveSchemesPersistRoundTrip: for every scheme, the persisted form
// of a k-shard counter (its full delta) restores into counters of
// several shard counts with identical supports, and cross-scheme
// restores are rejected.
func TestLiveSchemesPersistRoundTrip(t *testing.T) {
	db := buildSkewedDB(t, 2000, 190)
	schema := db.Schema
	probes := probeItemsets(t, schema)
	schemes := liveSchemes(t, schema)
	for _, ls := range schemes {
		t.Run(ls.name, func(t *testing.T) {
			records := ls.perturb(t, db, rand.New(rand.NewSource(191)))
			orig, err := NewShardedCounter(ls.scheme, 4)
			if err != nil {
				t.Fatal(err)
			}
			for _, items := range records {
				if err := orig.Ingest(items); err != nil {
					t.Fatal(err)
				}
			}
			want, err := orig.Supports(probes)
			if err != nil {
				t.Fatal(err)
			}
			state, err := orig.DeltaSince(0)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 2, 4, 7} {
				back, err := restoreCounter(ls.scheme, shards, state)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if back.N() != orig.N() {
					t.Fatalf("shards=%d: restored %d records, want %d", shards, back.N(), orig.N())
				}
				if back.Version() != uint64(orig.N()) {
					t.Fatalf("shards=%d: restored version %d, want %d", shards, back.Version(), orig.N())
				}
				got, err := back.Supports(probes)
				if err != nil {
					t.Fatal(err)
				}
				for i, probe := range probes {
					if math.Abs(want[i]-got[i]) > 1e-9 {
						t.Errorf("shards=%d %s: %v, want %v", shards, probe.Key(), got[i], want[i])
					}
				}
			}
			// Cross-scheme restore: every OTHER scheme must reject this
			// state.
			for _, other := range schemes {
				if other.name == ls.name {
					continue
				}
				if _, err := restoreCounter(other.scheme, 2, state); !errors.Is(err, ErrMining) {
					t.Errorf("state saved under %s restored into %s: %v", ls.name, other.name, err)
				}
			}
		})
	}
}

// TestLiveSchemesConcurrentIngestAndQuery: under -race, concurrent
// submitters, query sweeps, snapshots, and delta pulls on every scheme.
// Asserts monotonic versions and internally consistent sweeps.
func TestLiveSchemesConcurrentIngestAndQuery(t *testing.T) {
	db := buildSkewedDB(t, 1200, 200)
	schema := db.Schema
	probes := probeItemsets(t, schema)[:8]
	for _, ls := range liveSchemes(t, schema) {
		t.Run(ls.name, func(t *testing.T) {
			records := ls.perturb(t, db, rand.New(rand.NewSource(201)))
			c, err := NewShardedCounter(ls.scheme, 4)
			if err != nil {
				t.Fatal(err)
			}
			const submitters = 4
			var wg sync.WaitGroup
			for g := 0; g < submitters; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := g; i < len(records); i += submitters {
						if err := c.Ingest(records[i]); err != nil {
							t.Error(err)
							return
						}
					}
				}(g)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			var lastVersion uint64
			for {
				select {
				case <-done:
					goto drained
				default:
				}
				v := c.Version()
				if v < lastVersion {
					t.Fatalf("version regressed %d -> %d", lastVersion, v)
				}
				lastVersion = v
				if c.N() > 0 {
					ests, n, err := c.Estimates(probes)
					if err != nil {
						t.Fatal(err)
					}
					if n <= 0 || len(ests) != len(probes) {
						t.Fatalf("sweep n=%d, %d estimates", n, len(ests))
					}
					// Arity-0 probe is exact: must equal the sweep count.
					if math.Abs(ests[0].Count-float64(n)) > 1e-9 {
						t.Fatalf("empty filter estimate %v, sweep n=%d", ests[0].Count, n)
					}
				}
				if _, err := c.DeltaSince(0); err != nil {
					t.Fatal(err)
				}
				snap, v := c.SnapshotVersioned()
				if uint64(snap.N()) < v {
					t.Fatalf("snapshot n=%d below version %d", snap.N(), v)
				}
			}
		drained:
			if c.N() != len(records) {
				t.Fatalf("ingested %d, want %d", c.N(), len(records))
			}
		})
	}
}

// TestLiveSchemesDeltaReplication: for every scheme, a replica fed a
// full delta then incremental deltas converges to the source counter;
// cross-scheme deltas are rejected, never merged.
func TestLiveSchemesDeltaReplication(t *testing.T) {
	db := buildSkewedDB(t, 1500, 210)
	schema := db.Schema
	probes := probeItemsets(t, schema)
	schemes := liveSchemes(t, schema)
	for _, ls := range schemes {
		t.Run(ls.name, func(t *testing.T) {
			records := ls.perturb(t, db, rand.New(rand.NewSource(211)))
			src, err := NewShardedCounter(ls.scheme, 3)
			if err != nil {
				t.Fatal(err)
			}
			replica := ls.scheme.NewCore()
			var since uint64
			next := 0
			for _, chunk := range []int{0, 400, 1, 700, 0, len(records) - 1101} {
				for i := 0; i < chunk; i++ {
					if err := src.Ingest(records[next]); err != nil {
						t.Fatal(err)
					}
					next++
				}
				d, err := src.DeltaSince(since)
				if err != nil {
					t.Fatal(err)
				}
				if since == 0 && !d.Full() {
					t.Fatal("first pull was not a full delta")
				}
				if err := replica.ApplyDelta(d); err != nil {
					t.Fatal(err)
				}
				since = d.ToVersion
			}
			if replica.N() != src.N() {
				t.Fatalf("replica %d records, source %d", replica.N(), src.N())
			}
			want, err := src.Supports(probes)
			if err != nil {
				t.Fatal(err)
			}
			got, err := replica.Supports(probes)
			if err != nil {
				t.Fatal(err)
			}
			for i, probe := range probes {
				if math.Abs(want[i]-got[i]) > 1e-9 {
					t.Errorf("%s: replica %v, source %v", probe.Key(), got[i], want[i])
				}
			}
			// A delta extracted under any OTHER scheme must be rejected by
			// this scheme's replica — the scheme tag is inside the
			// fingerprint, so even identical schemas cannot merge.
			for _, other := range schemes {
				if other.name == ls.name {
					continue
				}
				otherSrc, err := NewShardedCounter(other.scheme, 1)
				if err != nil {
					t.Fatal(err)
				}
				otherRecords := other.perturb(t, db, rand.New(rand.NewSource(212)))
				for i := 0; i < 50; i++ {
					if err := otherSrc.Ingest(otherRecords[i]); err != nil {
						t.Fatal(err)
					}
				}
				d, err := otherSrc.DeltaSince(0)
				if err != nil {
					t.Fatal(err)
				}
				if err := ls.scheme.NewCore().ApplyDelta(d); !errors.Is(err, ErrMining) {
					t.Errorf("%s delta applied to %s replica: %v", other.name, ls.name, err)
				}
				if err := ls.scheme.NewCore().Merge(otherSrc.scheme.NewCore()); !errors.Is(err, ErrMining) {
					t.Errorf("%s core merged into %s replica: %v", other.name, ls.name, err)
				}
			}
		})
	}
}

// TestSchemeFingerprintsDistinct: the fingerprint seals the scheme tag —
// all three schemes over ONE schema and ONE gamma must produce three
// distinct fingerprints, and SchemeForContract must reject unknown
// names.
func TestSchemeFingerprintsDistinct(t *testing.T) {
	schema := buildSkewedDB(t, 10, 220).Schema
	seen := make(map[string]string)
	for _, name := range SchemeNames() {
		scheme, err := SchemeForContract(name, schema, liveTestGamma)
		if err != nil {
			t.Fatal(err)
		}
		if scheme.Name() != name {
			t.Fatalf("scheme %q reports name %q", name, scheme.Name())
		}
		fp := scheme.Fingerprint()
		if prev, ok := seen[fp]; ok {
			t.Fatalf("schemes %s and %s share fingerprint %.12s", prev, name, fp)
		}
		seen[fp] = name
	}
	if _, err := SchemeForContract("bogus", schema, liveTestGamma); !errors.Is(err, ErrMining) {
		t.Fatal("unknown scheme accepted")
	}
	// The empty name is the gamma default.
	def, err := SchemeForContract("", schema, liveTestGamma)
	if err != nil {
		t.Fatal(err)
	}
	if def.Name() != SchemeGamma {
		t.Fatalf("default scheme %q, want %q", def.Name(), SchemeGamma)
	}
}

// TestNewShardedCounterRejectsNilScheme: the exported constructor must
// follow the package's validate-and-wrap convention, not panic.
func TestNewShardedCounterRejectsNilScheme(t *testing.T) {
	if _, err := NewShardedCounter(nil, 4); !errors.Is(err, ErrMining) {
		t.Fatalf("nil scheme accepted: %v", err)
	}
}
