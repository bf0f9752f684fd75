package locserv

import (
	"math"

	"mapdr/internal/geo"
)

// Scan-path reference oracle. ReferenceWithin and ReferenceNearest
// answer queries by brute-force scan of every shard — the same
// per-object evaluation the live index's pruned paths must reproduce
// bit-identically. They exist for validation harnesses (the churn
// experiment, property tests, benchmarks baselining the index against
// a scan) and cost O(n) per call (ReferenceNearest sorts, too);
// production queries go through Within and Nearest.

// ReferenceWithin answers a range query through the per-shard scan
// reference, merged and sorted exactly like Within.
func (s *Service) ReferenceWithin(r geo.Rect, t float64) []ObjectPos {
	q := withinQuery{r: r, t: t}
	for _, sh := range s.shards {
		sh.mu.RLock()
		sh.withinScanLocked(&q)
		sh.mu.RUnlock()
	}
	return sortWithin(q.out)
}

// ReferenceNearest answers a k-NN query by evaluating every object,
// sorting them all and truncating to k exactly like Nearest — the
// query is never full, so no pruning and no heap replacement is
// involved in the answer.
func (s *Service) ReferenceNearest(p geo.Point, k int, t float64) []ObjectPos {
	if k <= 0 {
		return nil
	}
	q := nearestQuery{p: p, k: math.MaxInt, t: t}
	for _, sh := range s.shards {
		sh.mu.RLock()
		sh.nearestScanLocked(&q)
		sh.mu.RUnlock()
	}
	return sortNearest(q.heap, k)
}
