package nindex

import (
	"math"
	"sort"

	"mistique/internal/diag"
)

// TopKZones ranks rows [from, to) of a column without an index, in the
// pinned diag.RankLess order, returning global row ids. It is the answer
// for columns that move between probes, where building an index would be
// wasted: zones (indexed by RowBlock, blockRows rows each) order the
// blocks by descending zone max, read fetches one block's slice of the
// range, and a bounded selection keeps the k best rows seen so far.
//
// The scan stops once the k-th candidate is strictly above the next
// block's max. Every unread row then ranks after it: either its value is
// at most that max, or it is NaN, which ranks last. A tie with the k-th
// value never stops the scan, so the lower row id of a tie is never
// skipped, and an inverted zone (all NaN, or unknown) sorts first and is
// always read. The result equals diag.TopK over the range exactly, and
// the scan reads no block outside the range and sorts only the k
// survivors.
func TopKZones(zones []Zone, blockRows, from, to, k int, read func(lo, hi int) ([]float32, error)) ([]Entry, error) {
	if k > to-from {
		k = to - from
	}
	if k <= 0 || blockRows <= 0 {
		return []Entry{}, nil
	}
	type blockMax struct {
		block int
		max   float32
	}
	first, last := from/blockRows, (to-1)/blockRows
	order := make([]blockMax, 0, last-first+1)
	for b := first; b <= last; b++ {
		m := float32(math.Inf(1))
		if b < len(zones) && zones[b].Min <= zones[b].Max {
			m = zones[b].Max
		}
		order = append(order, blockMax{b, m})
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].max != order[j].max {
			return order[i].max > order[j].max
		}
		return order[i].block < order[j].block
	})
	best := diag.NewBest(k, func(a, b Entry) bool { return diag.RankLess(a.Value, b.Value, a.Row, b.Row) })
	for _, bm := range order {
		if best.Full() && best.Worst().Value > bm.max {
			break // order is max-descending: every later block prunes too
		}
		lo, hi := max(bm.block*blockRows, from), min((bm.block+1)*blockRows, to)
		vals, err := read(lo, hi)
		if err != nil {
			return nil, err
		}
		for i, v := range vals {
			best.Offer(Entry{Row: lo + i, Value: v})
		}
	}
	return best.Sorted(), nil
}
