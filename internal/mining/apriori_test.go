package mining

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// buildSkewedDB creates a database with planted frequent itemsets: 40% of
// records are {0,0,0}, 25% are {1,1,1}, the rest uniform noise.
func buildSkewedDB(t *testing.T, n int, seed int64) *dataset.Database {
	t.Helper()
	s := miningSchema(t)
	db := dataset.NewDatabase(s, n)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		var rec dataset.Record
		switch r := rng.Float64(); {
		case r < 0.40:
			rec = dataset.Record{0, 0, 0}
		case r < 0.65:
			rec = dataset.Record{1, 1, 1}
		default:
			rec = dataset.Record{rng.Intn(3), rng.Intn(2), rng.Intn(4)}
		}
		if err := db.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestAprioriExactFindsPlantedItemsets(t *testing.T) {
	db := buildSkewedDB(t, 20000, 1)
	res, err := Apriori(&ExactCounter{DB: db}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ByLength) != 3 {
		t.Fatalf("max frequent length %d, want 3", len(res.ByLength))
	}
	all := res.All()
	f, ok := all["0=0,1=0,2=0"]
	if !ok {
		t.Fatal("planted itemset {0,0,0} not found")
	}
	if math.Abs(f.Support-0.415) > 0.02 { // 0.40 + noise hitting it
		t.Fatalf("support of planted itemset = %v", f.Support)
	}
	if _, ok := all["0=2,1=1"]; ok {
		t.Fatal("itemset {a=2,b=1} should not be frequent at 20%")
	}
	// Downward closure: every subset of a frequent itemset is frequent.
	for _, level := range res.ByLength[1:] {
		for _, fi := range level {
			for _, sub := range fi.Items.Subsets() {
				if _, ok := all[sub.Key()]; !ok {
					t.Fatalf("closure violated: %s frequent but subset %s missing", fi.Items.Key(), sub.Key())
				}
			}
		}
	}
}

func TestAprioriSupportsAreExact(t *testing.T) {
	db := buildSkewedDB(t, 5000, 2)
	res, err := Apriori(&ExactCounter{DB: db}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// Verify every reported support by brute force.
	for _, level := range res.ByLength {
		for _, f := range level {
			var count int
			for _, rec := range db.Records {
				if f.Items.Supports(rec) {
					count++
				}
			}
			want := float64(count) / float64(db.N())
			if math.Abs(f.Support-want) > 1e-12 {
				t.Fatalf("support of %s = %v, brute force %v", f.Items.Key(), f.Support, want)
			}
		}
	}
}

func TestAprioriCompletenessVsBruteForce(t *testing.T) {
	// Enumerate ALL possible itemsets on the small schema and confirm
	// Apriori finds exactly the frequent ones.
	db := buildSkewedDB(t, 3000, 3)
	sc := db.Schema
	const minSup = 0.1
	res, err := Apriori(&ExactCounter{DB: db}, minSup)
	if err != nil {
		t.Fatal(err)
	}
	found := res.All()

	threshold := minSup * float64(db.N())
	var enumerate func(attr int, cur Itemset)
	checked := 0
	enumerate = func(attr int, cur Itemset) {
		if len(cur) > 0 {
			var count float64
			for _, rec := range db.Records {
				if cur.Supports(rec) {
					count++
				}
			}
			_, ok := found[cur.Key()]
			if count >= threshold && !ok {
				t.Fatalf("frequent itemset %s (count %v) missed", cur.Key(), count)
			}
			if count < threshold && ok {
				t.Fatalf("infrequent itemset %s (count %v) reported", cur.Key(), count)
			}
			checked++
		}
		for a := attr; a < sc.M(); a++ {
			for v := 0; v < sc.Attrs[a].Cardinality(); v++ {
				enumerate(a+1, append(append(Itemset{}, cur...), Item{a, v}))
			}
		}
	}
	enumerate(0, nil)
	if checked == 0 {
		t.Fatal("enumeration did not run")
	}
}

func TestAprioriParamValidation(t *testing.T) {
	db := buildSkewedDB(t, 100, 4)
	for _, ms := range []float64{0, -0.1, 1.5} {
		if _, err := Apriori(&ExactCounter{DB: db}, ms); !errors.Is(err, ErrMining) {
			t.Errorf("minSupport %v accepted", ms)
		}
	}
	empty := dataset.NewDatabase(db.Schema, 0)
	if _, err := Apriori(&ExactCounter{DB: empty}, 0.1); !errors.Is(err, ErrMining) {
		t.Fatal("empty database accepted")
	}
}

func TestResultHelpers(t *testing.T) {
	db := buildSkewedDB(t, 2000, 5)
	res, err := Apriori(&ExactCounter{DB: db}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	counts := res.Counts()
	if len(counts) == 0 || counts[0] == 0 {
		t.Fatalf("Counts = %v", counts)
	}
	f, ok := res.Lookup("0=0")
	if !ok || f.Support <= 0 {
		t.Fatal("Lookup of frequent 1-itemset failed")
	}
	if _, ok := res.Lookup("0=0,1=1,2=3"); ok {
		t.Fatal("Lookup invented an itemset")
	}
}

func TestGammaCounterReconstruction(t *testing.T) {
	db := buildSkewedDB(t, 60000, 6)
	sc := db.Schema
	m, err := core.NewGammaDiagonal(sc.DomainSize(), 19)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewGammaPerturber(sc, m)
	if err != nil {
		t.Fatal(err)
	}
	pdb, err := core.PerturbDatabase(db, p, rand.New(rand.NewSource(66)))
	if err != nil {
		t.Fatal(err)
	}
	gc, err := NewGammaCounter(pdb, m)
	if err != nil {
		t.Fatal(err)
	}
	exact := &ExactCounter{DB: db}
	cands := []Itemset{
		{{0, 0}},
		{{0, 0}, {1, 0}},
		{{0, 0}, {1, 0}, {2, 0}},
		{{0, 1}, {2, 1}},
	}
	got, err := gc.Supports(cands)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exact.Supports(cands)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cands {
		relTol := 0.10 * float64(db.N()) // within 10% of N absolute
		if math.Abs(got[i]-want[i]) > relTol {
			t.Fatalf("candidate %s: reconstructed %v vs true %v", cands[i].Key(), got[i], want[i])
		}
	}
}

func TestGammaCounterValidation(t *testing.T) {
	db := buildSkewedDB(t, 100, 7)
	wrong, _ := core.NewGammaDiagonal(db.Schema.DomainSize()+1, 19)
	if _, err := NewGammaCounter(db, wrong); !errors.Is(err, ErrMining) {
		t.Fatal("order mismatch accepted")
	}
}

func TestAprioriWithGammaCounterEndToEnd(t *testing.T) {
	db := buildSkewedDB(t, 60000, 8)
	sc := db.Schema
	m, _ := core.NewGammaDiagonal(sc.DomainSize(), 19)
	p, _ := core.NewGammaPerturber(sc, m)
	pdb, err := core.PerturbDatabase(db, p, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	gc, err := NewGammaCounter(pdb, m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Apriori(gc, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	all := res.All()
	if _, ok := all["0=0,1=0,2=0"]; !ok {
		t.Fatal("reconstruction missed the dominant planted 3-itemset")
	}
	f := all["0=0,1=0,2=0"]
	if math.Abs(f.Support-0.415) > 0.05 {
		t.Fatalf("reconstructed support %v, want ≈0.415", f.Support)
	}
}

func TestMaskCounterEndToEnd(t *testing.T) {
	db := buildSkewedDB(t, 60000, 10)
	bm, err := core.NewBoolMapping(db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	// Mild privacy (high gamma) so the small-domain test stays accurate.
	sch, err := core.NewMaskScheme(bm, 0.90)
	if err != nil {
		t.Fatal(err)
	}
	bdb, err := sch.PerturbDatabase(db, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	mc := &MaskCounter{Perturbed: bdb, Scheme: sch}
	if mc.N() != db.N() || mc.Schema() != db.Schema {
		t.Fatal("counter metadata wrong")
	}
	res, err := Apriori(mc, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := res.All()["0=0,1=0,2=0"]
	if !ok {
		t.Fatal("MASK mining missed the planted 3-itemset")
	}
	if math.Abs(f.Support-0.415) > 0.05 {
		t.Fatalf("MASK support %v, want ≈0.415", f.Support)
	}
}

func TestCutPasteCounterEndToEnd(t *testing.T) {
	db := buildSkewedDB(t, 60000, 12)
	bm, err := core.NewBoolMapping(db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	// Gentle parameters (large K keeps most items).
	sch, err := core.NewCutPasteScheme(bm, 10, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	bdb, err := sch.PerturbDatabase(db, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	cc := &CutPasteCounter{Perturbed: bdb, Scheme: sch}
	if cc.N() != db.N() || cc.Schema() != db.Schema {
		t.Fatal("counter metadata wrong")
	}
	res, err := Apriori(cc, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := res.All()["0=0,1=0,2=0"]
	if !ok {
		t.Fatal("C&P mining missed the planted 3-itemset")
	}
	if math.Abs(f.Support-0.415) > 0.08 {
		t.Fatalf("C&P support %v, want ≈0.415", f.Support)
	}
}

func TestRandomizedGammaMiningEndToEnd(t *testing.T) {
	db := buildSkewedDB(t, 60000, 14)
	sc := db.Schema
	m, _ := core.NewGammaDiagonal(sc.DomainSize(), 19)
	alpha := m.Diag / 2
	p, err := core.NewRandomizedGammaPerturber(sc, m, alpha)
	if err != nil {
		t.Fatal(err)
	}
	pdb, err := core.PerturbDatabase(db, p, rand.New(rand.NewSource(15)))
	if err != nil {
		t.Fatal(err)
	}
	gc, err := NewGammaCounter(pdb, p.ExpectedMatrix())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Apriori(gc, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := res.All()["0=0,1=0,2=0"]
	if !ok {
		t.Fatal("RAN-GD mining missed the planted 3-itemset")
	}
	if math.Abs(f.Support-0.415) > 0.05 {
		t.Fatalf("RAN-GD support %v, want ≈0.415", f.Support)
	}
}

func TestAprioriOptionsValidation(t *testing.T) {
	db := buildSkewedDB(t, 100, 20)
	for _, relax := range []float64{0, -0.5, 1.5} {
		if _, err := AprioriWithOptions(&ExactCounter{DB: db}, 0.1, Options{CandidateRelaxation: relax}); !errors.Is(err, ErrMining) {
			t.Errorf("relaxation %v accepted", relax)
		}
	}
}

func TestAprioriRelaxationMatchesPlainOnExactData(t *testing.T) {
	// With exact counting, relaxation changes which CANDIDATES are
	// explored but never the reported frequent sets (downward closure
	// holds exactly).
	db := buildSkewedDB(t, 8000, 21)
	plain, err := Apriori(&ExactCounter{DB: db}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	relaxed, err := AprioriWithOptions(&ExactCounter{DB: db}, 0.1, Options{CandidateRelaxation: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	pa, ra := plain.All(), relaxed.All()
	if len(pa) != len(ra) {
		t.Fatalf("plain found %d, relaxed %d", len(pa), len(ra))
	}
	for k, f := range pa {
		g, ok := ra[k]
		if !ok || math.Abs(f.Support-g.Support) > 1e-12 {
			t.Fatalf("itemset %s differs between plain and relaxed", k)
		}
	}
}

func TestAprioriRelaxationReducesFalseNegatives(t *testing.T) {
	// Under noisy reconstruction, relaxed candidate retention must find
	// at least as many TRUE frequent itemsets as plain Apriori.
	db := buildSkewedDB(t, 60000, 22)
	sc := db.Schema
	truth, err := Apriori(&ExactCounter{DB: db}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	trueKeys := truth.All()

	m, _ := core.NewGammaDiagonal(sc.DomainSize(), 19)
	p, _ := core.NewGammaPerturber(sc, m)
	pdb, err := core.PerturbDatabase(db, p, rand.New(rand.NewSource(23)))
	if err != nil {
		t.Fatal(err)
	}
	gc, err := NewGammaCounter(pdb, m)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Apriori(gc, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	relaxed, err := AprioriWithOptions(gc, 0.2, Options{CandidateRelaxation: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	hits := func(r *Result) int {
		n := 0
		for k := range r.All() {
			if _, ok := trueKeys[k]; ok {
				n++
			}
		}
		return n
	}
	if hits(relaxed) < hits(plain) {
		t.Fatalf("relaxation lost true itemsets: %d < %d", hits(relaxed), hits(plain))
	}
}

// TestAprioriMaxLen pins the level cap: a capped run reproduces exactly
// the first MaxLen levels of the unbounded run and never counts longer
// candidates, and an invalid cap is rejected.
func TestAprioriMaxLen(t *testing.T) {
	db := buildSkewedDB(t, 20000, 5)
	full, err := Apriori(&ExactCounter{DB: db}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.ByLength) < 2 {
		t.Fatalf("need multi-level data, got %d levels", len(full.ByLength))
	}
	for maxLen := 1; maxLen <= len(full.ByLength); maxLen++ {
		capped, err := AprioriWithOptions(&ExactCounter{DB: db}, 0.2, Options{CandidateRelaxation: 1, MaxLen: maxLen})
		if err != nil {
			t.Fatal(err)
		}
		if len(capped.ByLength) != maxLen {
			t.Fatalf("maxlen=%d produced %d levels", maxLen, len(capped.ByLength))
		}
		for l := 0; l < maxLen; l++ {
			if len(capped.ByLength[l]) != len(full.ByLength[l]) {
				t.Fatalf("maxlen=%d level %d has %d itemsets, want %d", maxLen, l+1, len(capped.ByLength[l]), len(full.ByLength[l]))
			}
			for i, fi := range capped.ByLength[l] {
				want := full.ByLength[l][i]
				if fi.Items.Key() != want.Items.Key() || fi.Support != want.Support {
					t.Fatalf("maxlen=%d level %d itemset %d differs", maxLen, l+1, i)
				}
			}
		}
	}
	if _, err := AprioriWithOptions(&ExactCounter{DB: db}, 0.2, Options{CandidateRelaxation: 1, MaxLen: -1}); !errors.Is(err, ErrMining) {
		t.Fatal("negative maxlen accepted")
	}
}

// TestOutputsSortedByDecimalKey pins the output order where the Key
// string order and numeric (attribute, value) order disagree: on a
// 12-attribute schema whose attribute 2 has 12 categories, "10=…" sorts
// before "2=…" and "2=10" before "2=3". Apriori levels, rules (ties in
// confidence broken by antecedent then consequent key) and the maximal
// and closed sets must all come out in Key string order.
func TestOutputsSortedByDecimalKey(t *testing.T) {
	if got := (Itemset{{Attr: 2, Value: 10}, {Attr: 10, Value: 3}}).Key(); got != "2=10,10=3" {
		t.Fatalf("Key() = %q, want %q", got, "2=10,10=3")
	}
	attrs := make([]dataset.Attribute, 12)
	for j := range attrs {
		cats := 4
		if j == 2 {
			cats = 12
		}
		attrs[j] = dataset.Attribute{Name: fmt.Sprintf("a%d", j)}
		for v := 0; v < cats; v++ {
			attrs[j].Categories = append(attrs[j].Categories, fmt.Sprintf("v%d", v))
		}
	}
	schema, err := dataset.NewSchema("decimal-order", attrs)
	if err != nil {
		t.Fatal(err)
	}
	// Attribute 2 is mostly 10 or 3; attribute 11 is a function of it,
	// so many rules hold with confidence exactly 1 and tie.
	rng := rand.New(rand.NewSource(3))
	db := dataset.NewDatabase(schema, 600)
	for i := 0; i < 600; i++ {
		rec := make(dataset.Record, schema.M())
		for j := range rec {
			if rng.Float64() < 0.7 {
				rec[j] = 3
			} else {
				rec[j] = rng.Intn(4)
			}
		}
		switch r := rng.Float64(); {
		case r < 0.5:
			rec[2] = 10
		case r < 0.8:
			rec[2] = 3
		default:
			rec[2] = rng.Intn(12)
		}
		rec[11] = rec[2] % 4
		if err := db.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Apriori(&ExactCounter{DB: db}, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ByLength) < 3 {
		t.Fatalf("need multi-level data, got %d levels", len(res.ByLength))
	}
	numericLess := func(a, b Itemset) bool {
		for k := range min(len(a), len(b)) {
			if a[k] != b[k] {
				return a[k].Attr < b[k].Attr || a[k].Attr == b[k].Attr && a[k].Value < b[k].Value
			}
		}
		return len(a) < len(b)
	}
	keysAscending := func(what string, fs []FrequentItemset) {
		t.Helper()
		for i := 1; i < len(fs); i++ {
			if fs[i-1].Items.Key() >= fs[i].Items.Key() {
				t.Fatalf("%s: %q listed before %q", what, fs[i-1].Items.Key(), fs[i].Items.Key())
			}
		}
	}
	numericDisagrees := false
	for l, level := range res.ByLength {
		keysAscending(fmt.Sprintf("level %d", l+1), level)
		for i := 1; i < len(level); i++ {
			numericDisagrees = numericDisagrees || numericLess(level[i].Items, level[i-1].Items)
		}
	}
	if !numericDisagrees {
		t.Fatal("no level where Key order differs from numeric order; the data does not exercise it")
	}
	keysAscending("maximal", Maximal(res))
	keysAscending("closed", Closed(res, 1e-12))

	rules, err := GenerateRules(res, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	ties := 0
	for i := 1; i < len(rules); i++ {
		a, b := rules[i-1], rules[i]
		if a.Confidence != b.Confidence {
			if a.Confidence < b.Confidence {
				t.Fatalf("rule %d: confidence %v before %v", i, a.Confidence, b.Confidence)
			}
			continue
		}
		ties++
		ak, bk := a.Antecedent.Key(), b.Antecedent.Key()
		if ak > bk || ak == bk && a.Consequent.Key() >= b.Consequent.Key() {
			t.Fatalf("tied rules out of key order: %v then %v", a, b)
		}
	}
	if ties == 0 {
		t.Fatal("no confidence ties; the key tie-break is untested")
	}
}
