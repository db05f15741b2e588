// Package mining implements the frequent-itemset substrate of Section 6
// of the FRAPP paper: Apriori-style level-wise mining over categorical
// data, generic over a support counter so the same algorithm runs against
// the original database (ground truth) or against a perturbed database
// with per-scheme support reconstruction (DET-GD/RAN-GD marginal
// inversion, MASK tensor inversion, C&P partial-support inversion), plus
// association-rule generation from the mined itemsets.
package mining

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dataset"
)

// ErrMining is returned for malformed itemsets or mining parameters.
var ErrMining = errors.New("mining: invalid input")

// Item is one attribute-value pair. In the categorical model an itemset
// contains at most one item per attribute (a record holds exactly one
// value per attribute, so two items on the same attribute can never be
// co-supported).
type Item struct {
	Attr  int
	Value int
}

// Itemset is a set of items sorted by attribute. The zero-length itemset
// is valid and is supported by every record.
type Itemset []Item

// NewItemset validates and canonicalizes (sorts) the items.
func NewItemset(items ...Item) (Itemset, error) {
	out := make(Itemset, len(items))
	copy(out, items)
	sort.Slice(out, func(i, j int) bool { return out[i].Attr < out[j].Attr })
	for i := 1; i < len(out); i++ {
		if out[i].Attr == out[i-1].Attr {
			return nil, fmt.Errorf("%w: duplicate attribute %d in itemset", ErrMining, out[i].Attr)
		}
	}
	return out, nil
}

// Len returns the itemset length.
func (s Itemset) Len() int { return len(s) }

// Key returns a canonical string key for maps, e.g. "0=1,10=3". Result
// lists are sorted by this string, so its decimal order is the output
// order.
func (s Itemset) Key() string {
	return string(s.appendKey(make([]byte, 0, 8*len(s))))
}

// appendKey appends the itemset's Key to b — the allocation-free form
// for lookups and sorts that would otherwise build one string per call.
func (s Itemset) appendKey(b []byte) []byte {
	for i, it := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(it.Attr), 10)
		b = append(b, '=')
		b = strconv.AppendInt(b, int64(it.Value), 10)
	}
	return b
}

// Attrs returns the attribute positions, in order.
func (s Itemset) Attrs() []int {
	out := make([]int, len(s))
	for i, it := range s {
		out[i] = it.Attr
	}
	return out
}

// Values returns the values, in attribute order.
func (s Itemset) Values() []int {
	out := make([]int, len(s))
	for i, it := range s {
		out[i] = it.Value
	}
	return out
}

// Contains reports whether the itemset includes the item.
func (s Itemset) Contains(it Item) bool {
	for _, x := range s {
		if x == it {
			return true
		}
	}
	return false
}

// Supports reports whether record rec supports the itemset (matches every
// item's value on its attribute).
func (s Itemset) Supports(rec dataset.Record) bool {
	for _, it := range s {
		if it.Attr >= len(rec) || rec[it.Attr] != it.Value {
			return false
		}
	}
	return true
}

// Subsets returns the length-(k−1) subsets of a length-k itemset, used by
// Apriori's prune step.
func (s Itemset) Subsets() []Itemset {
	out := make([]Itemset, 0, len(s))
	for drop := range s {
		sub := make(Itemset, 0, len(s)-1)
		for i, it := range s {
			if i != drop {
				sub = append(sub, it)
			}
		}
		out = append(out, sub)
	}
	return out
}

// Validate checks the itemset against a schema.
func (s Itemset) Validate(sc *dataset.Schema) error {
	for i, it := range s {
		if it.Attr < 0 || it.Attr >= sc.M() {
			return fmt.Errorf("%w: attribute %d out of range", ErrMining, it.Attr)
		}
		if it.Value < 0 || it.Value >= sc.Attrs[it.Attr].Cardinality() {
			return fmt.Errorf("%w: value %d out of range for attribute %d", ErrMining, it.Value, it.Attr)
		}
		if i > 0 && s[i-1].Attr >= it.Attr {
			return fmt.Errorf("%w: itemset not in canonical attribute order", ErrMining)
		}
	}
	return nil
}

// String renders the itemset with schema names when available.
func (s Itemset) String() string {
	return s.Key()
}

// FormatWith renders the itemset using a schema's attribute and category
// names, e.g. "age=(15-35] & sex=Female".
func (s Itemset) FormatWith(sc *dataset.Schema) string {
	if err := s.Validate(sc); err != nil {
		return s.Key()
	}
	parts := make([]string, len(s))
	for i, it := range s {
		parts[i] = sc.Attrs[it.Attr].Name + "=" + sc.Attrs[it.Attr].Categories[it.Value]
	}
	return strings.Join(parts, " & ")
}
