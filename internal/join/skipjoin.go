// Skip-join: Stack-Tree-Desc extended with the skipping idea of Chien et
// al. (VLDB 2002) and the XR-tree (Jiang et al., ICDE 2003), both cited
// by the paper's related work: when the stack is empty, whole runs of
// elements that cannot participate in any join are skipped with binary
// search instead of being scanned one by one — descendants of a dead
// ancestor on the A side, ancestor-less elements on the D side.

package join

// gallop returns the smallest j >= from with pred(list[j]) true (or
// len(list)), by exponential probing followed by binary search, so the
// cost is O(log(j-from)) — proportional to the distance skipped, never
// worse than a constant factor over scanning one step.
func gallop(n, from int, pred func(int) bool) int {
	if from >= n || pred(from) {
		return from
	}
	step := 1
	lo := from
	for lo+step < n && !pred(lo+step) {
		lo += step
		step *= 2
	}
	hi := min(lo+step, n)
	// Invariant: !pred(lo), pred(hi) or hi==n.
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if pred(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// SkipJoin computes the same result as StackTreeDesc (identical pairs,
// identical order) but skips non-joining runs in time logarithmic in the
// length of the run. The win grows with the fraction of elements that
// produce no output.
func SkipJoin(alist, dlist []Node, axis Axis) []Match {
	var out []Match
	SkipJoinEmit(alist, dlist, axis, func(m Match) bool {
		out = append(out, m)
		return true
	})
	return out
}

// SkipJoinEmit is SkipJoin in push form: matches are handed to emit in the
// order the slice variant returns them; emit returning false stops the
// merge. The return value reports whether the join ran to completion.
func SkipJoinEmit(alist, dlist []Node, axis Axis, emit func(Match) bool) bool {
	var stack []Node
	ai, di := 0, 0
	for di < len(dlist) {
		d := dlist[di]
		for len(stack) > 0 && stack[len(stack)-1].End <= d.Start {
			stack = stack[:len(stack)-1]
		}
		if ai < len(alist) && alist[ai].Start < d.Start {
			a := alist[ai]
			if len(stack) == 0 && a.End <= d.Start {
				// a is dead for every current and future descendant, and
				// so is everything nested inside it: skip the whole
				// subtree run.
				ai = gallop(len(alist), ai+1, func(j int) bool {
					return alist[j].Start >= a.End
				})
				continue
			}
			for len(stack) > 0 && stack[len(stack)-1].End <= a.Start {
				stack = stack[:len(stack)-1]
			}
			stack = append(stack, a)
			ai++
			continue
		}
		if len(stack) == 0 {
			// d has no ancestor on the stack and every unconsumed a
			// starts at or after d: d — and every descendant up to the
			// next a — is dead. Skip the run.
			if ai >= len(alist) {
				break
			}
			aStart := alist[ai].Start
			di = gallop(len(dlist), di+1, func(j int) bool {
				return dlist[j].Start > aStart
			})
			continue
		}
		for _, a := range stack {
			if a.Start < d.Start && d.End <= a.End {
				if axis == Child && a.Level+1 != d.Level {
					continue
				}
				if !emit(match(a, d)) {
					return false
				}
			}
		}
		di++
	}
	return true
}
