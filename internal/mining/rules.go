package mining

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Rule is an association rule A ⇒ C with its support (fraction of records
// supporting A∪C), confidence (support(A∪C)/support(A)) and lift
// (confidence/support(C), when the consequent's support is known — zero
// otherwise).
type Rule struct {
	Antecedent Itemset
	Consequent Itemset
	Support    float64
	Confidence float64
	Lift       float64
}

// String renders the rule compactly.
func (r Rule) String() string {
	return fmt.Sprintf("%s => %s (sup=%.4f conf=%.4f)", r.Antecedent.Key(), r.Consequent.Key(), r.Support, r.Confidence)
}

// GenerateRules derives all association rules with confidence ≥ minConf
// from a mining result, the final step of association-rule mining once
// frequent itemsets (possibly reconstructed from perturbed data) are in
// hand. Rules are sorted by descending confidence, then key.
//
// Under support reconstruction the estimates are noisy and can violate
// monotonicity (a superset appearing more frequent than its subset, which
// would give confidence > 1); such inconsistent antecedents are skipped
// rather than reported, since the implied confidence is meaningless.
// Exact counting never triggers this path.
func GenerateRules(res *Result, minConf float64) ([]Rule, error) {
	if !(minConf > 0 && minConf <= 1) {
		return nil, fmt.Errorf("%w: minConf %v not in (0,1]", ErrMining, minConf)
	}
	supports := make(map[string]float64)
	for _, level := range res.ByLength {
		for _, f := range level {
			supports[f.Items.Key()] = f.Support
		}
	}
	// Rules are sorted on keys built once per emitted rule; antecedent
	// lookups reuse one key buffer.
	type keyedRule struct {
		ante, cons string
		rule       Rule
	}
	var keyed []keyedRule
	var buf []byte
	for k := 1; k < len(res.ByLength); k++ { // itemsets of length ≥ 2
		for _, f := range res.ByLength[k] {
			full := f.Items
			// Every nonempty proper subset can be an antecedent.
			for mask := 1; mask < 1<<uint(len(full))-1; mask++ {
				var ante, cons Itemset
				for i, it := range full {
					if mask&(1<<uint(i)) != 0 {
						ante = append(ante, it)
					} else {
						cons = append(cons, it)
					}
				}
				buf = ante.appendKey(buf[:0])
				anteSup, ok := supports[string(buf)]
				if !ok || anteSup <= 0 {
					continue // antecedent not frequent (or reconstruction noise)
				}
				conf := f.Support / anteSup
				if conf > 1 {
					continue // reconstruction-noise artifact; see doc comment
				}
				if conf >= minConf {
					kr := keyedRule{ante: string(buf), cons: cons.Key(), rule: Rule{
						Antecedent: ante,
						Consequent: cons,
						Support:    f.Support,
						Confidence: conf,
					}}
					if consSup, ok := supports[kr.cons]; ok && consSup > 0 {
						kr.rule.Lift = conf / consSup
					}
					keyed = append(keyed, kr)
				}
			}
		}
	}
	slices.SortFunc(keyed, func(a, b keyedRule) int {
		if c := cmp.Compare(b.rule.Confidence, a.rule.Confidence); c != 0 {
			return c
		}
		if c := strings.Compare(a.ante, b.ante); c != 0 {
			return c
		}
		return strings.Compare(a.cons, b.cons)
	})
	var rules []Rule
	for _, kr := range keyed {
		rules = append(rules, kr.rule)
	}
	return rules, nil
}
