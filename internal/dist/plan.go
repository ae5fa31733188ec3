package dist

import (
	"fmt"

	"m3/internal/exec"
)

// Range is one worker's contiguous row shard [Lo, Hi).
type Range struct{ Lo, Hi int }

// Rows returns the shard's row count.
func (r Range) Rows() int { return r.Hi - r.Lo }

// PlanShards splits n rows into at most k contiguous shards whose
// boundaries all sit on the canonical merge-group grid
// (exec.GroupRows(n)). Group alignment is the bit-identity contract:
// every merge group is computed wholly by one worker, so the
// coordinator's refold replays the local grouped fold operation for
// operation. When n has fewer groups than k, fewer (non-empty) shards
// are returned; callers drive only the returned shards.
func PlanShards(n, k int) ([]Range, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dist: cannot shard %d rows", n)
	}
	if k < 1 {
		return nil, fmt.Errorf("dist: cannot plan %d shards", k)
	}
	gr := exec.GroupRows(n)
	groups := (n + gr - 1) / gr
	if k > groups {
		k = groups
	}
	shards := make([]Range, 0, k)
	base, rem := groups/k, groups%k
	start := 0
	for i := 0; i < k; i++ {
		count := base
		if i < rem {
			count++
		}
		end := start + count
		lo, hi := start*gr, end*gr
		if hi > n {
			hi = n
		}
		shards = append(shards, Range{Lo: lo, Hi: hi})
		start = end
	}
	return shards, nil
}
