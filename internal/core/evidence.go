package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// impactTol is the tolerance under which two impacts are considered equal.
const impactTol = 1e-6

// ExplanationsFromEvidence derives explanations the way the paper's
// record-linkage baselines do (Section 5.1.3): tuples without a match in
// the evidence become provenance-based explanations; connected components
// whose two sides disagree on total impact yield a value-based explanation
// on the component's dominant right-side tuple.
func ExplanationsFromEvidence(inst *Instance, evidence []Evidence) *Explanations {
	out := &Explanations{Evidence: append([]Evidence(nil), evidence...)}
	nL := inst.T1.Len()
	impact := append(slices.Clone(inst.T1.Impacts), inst.T2.Impacts...)
	at, members := evidenceComponents(nL, inst.T2.Len(), evidence)
	matched := make([]bool, len(impact))
	for _, v := range members {
		matched[v] = true
	}
	for v, m := range matched {
		if !m {
			s, t := tupleOf(v, nL)
			out.Prov = append(out.Prov, ProvExpl{Side: s, Tuple: t})
		}
	}
	for c := 0; c+1 < len(at); c++ {
		ls, rs := splitSides(members[at[c]:at[c+1]], nL)
		sumL, sumR := 0.0, 0.0
		for _, v := range ls {
			sumL += impact[v]
		}
		// The correction goes to the largest-impact right tuple (the
		// aggregated side in ⊑ mappings); every component has one, since
		// each of its tuples is matched.
		best := rs[0]
		for _, v := range rs {
			sumR += impact[v]
			if math.Abs(impact[v]) > math.Abs(impact[best]) {
				best = v
			}
		}
		if math.Abs(sumL-sumR) <= impactTol {
			continue
		}
		out.Val = append(out.Val, ValExpl{Side: Right, Tuple: best - nL, NewImpact: impact[best] + (sumL - sumR)})
	}
	sortExplanations(out)
	return out
}

// evidenceComponents groups the tuples the evidence matches into the
// connected components of the evidence graph, where left tuple i is node i
// and right tuple j is node nL+j. Components are numbered in order of their
// smallest node, and component c's nodes are members[at[c]:at[c+1]],
// ascending, so its left tuples come first. Tuples the evidence does not
// touch are in no component.
func evidenceComponents(nL, nR int, evidence []Evidence) (at, members []int) {
	n := nL + nR
	parent := make([]int, n)
	for v := range parent {
		parent[v] = -1
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, ev := range evidence {
		l, r := ev.L, nL+ev.R
		for _, v := range [2]int{l, r} {
			if parent[v] < 0 {
				parent[v] = v
			}
		}
		if a, b := find(l), find(r); a != b {
			parent[a] = b
		}
	}
	// label[v] is touched node v's component; a root's label is set when
	// the component's smallest node is reached.
	label := make([]int, n)
	for v := range label {
		label[v] = -1
	}
	at = []int{0}
	for v := range label {
		if parent[v] < 0 {
			continue
		}
		r := find(v)
		if label[r] < 0 {
			label[r] = len(at) - 1
			at = append(at, 0)
		}
		label[v] = label[r]
		at[label[v]+1]++
	}
	for c := 1; c < len(at); c++ {
		at[c] += at[c-1]
	}
	members = make([]int, at[len(at)-1])
	next := append([]int(nil), at...)
	for v, c := range label {
		if c >= 0 {
			members[next[c]] = v
			next[c]++
		}
	}
	return at, members
}

// splitSides cuts a component's ascending node list into its left tuples
// and its right nodes (right tuple j is node nL+j).
func splitSides(nodes []int, nL int) (ls, rs []int) {
	k, _ := slices.BinarySearch(nodes, nL)
	return nodes[:k], nodes[k:]
}

// tupleOf maps node v of the evidence graph back to its side and tuple.
func tupleOf(v, nL int) (Side, int) {
	if v < nL {
		return Left, v
	}
	return Right, v - nL
}

func sortExplanations(e *Explanations) {
	sort.Slice(e.Prov, func(a, b int) bool {
		if e.Prov[a].Side != e.Prov[b].Side {
			return e.Prov[a].Side < e.Prov[b].Side
		}
		return e.Prov[a].Tuple < e.Prov[b].Tuple
	})
	sort.Slice(e.Val, func(a, b int) bool {
		if e.Val[a].Side != e.Val[b].Side {
			return e.Val[a].Side < e.Val[b].Side
		}
		return e.Val[a].Tuple < e.Val[b].Tuple
	})
	sort.Slice(e.Evidence, func(a, b int) bool {
		if e.Evidence[a].L != e.Evidence[b].L {
			return e.Evidence[a].L < e.Evidence[b].L
		}
		return e.Evidence[a].R < e.Evidence[b].R
	})
}

// CheckComplete verifies the completeness properties of Definition 3.4:
// the evidence is a valid mapping (Definition 3.2) over the refined
// canonical relations, deleted tuples carry no matches or value changes,
// every kept tuple is matched, and every connected component satisfies
// impact equality (Definition 3.3) after applying the value-based
// explanations. Tuples and components are checked in id order, so the
// violation it reports is the same on every call.
func CheckComplete(inst *Instance, e *Explanations) error {
	nL, n := inst.T1.Len(), inst.T1.Len()+inst.T2.Len()
	side := [2]string{"left", "right"}
	node := func(s Side, t int) (int, error) {
		v := t
		if s == Right {
			v += nL
		}
		if t < 0 || (s == Left && t >= nL) || v >= n {
			return 0, fmt.Errorf("core: %s tuple %d out of range", side[s], t)
		}
		return v, nil
	}
	impact := append(slices.Clone(inst.T1.Impacts), inst.T2.Impacts...)
	deleted := make([]bool, n)
	for _, pe := range e.Prov {
		v, err := node(pe.Side, pe.Tuple)
		if err != nil {
			return err
		}
		deleted[v] = true
	}
	for _, ve := range e.Val {
		v, err := node(ve.Side, ve.Tuple)
		if err != nil {
			return err
		}
		if deleted[v] {
			return fmt.Errorf("core: %s tuple %d is both deleted and value-corrected", side[ve.Side], ve.Tuple)
		}
		impact[v] = ve.NewImpact
	}
	deg := make([]int, n)
	for _, ev := range e.Evidence {
		l, errL := node(Left, ev.L)
		r, errR := node(Right, ev.R)
		if err := cmp.Or(errL, errR); err != nil {
			return err
		}
		if deleted[l] || deleted[r] {
			return fmt.Errorf("core: evidence (%d→%d) touches a deleted tuple", ev.L, ev.R)
		}
		deg[l]++
		deg[r]++
	}
	atMostOne := [2]bool{inst.Card.LeftAtMostOne, inst.Card.RightAtMostOne}
	for v, d := range deg {
		if s, t := tupleOf(v, nL); d > 1 && atMostOne[s] {
			return fmt.Errorf("core: %s tuple %d has degree %d under a %s-restricted mapping", side[s], t, d, side[s])
		}
	}
	for v, d := range deg {
		if s, t := tupleOf(v, nL); d == 0 && !deleted[v] {
			return fmt.Errorf("core: kept %s tuple %d is unmatched", side[s], t)
		}
	}
	// Impact equality per component of the evidence graph.
	at, members := evidenceComponents(nL, n-nL, e.Evidence)
	for c := 0; c+1 < len(at); c++ {
		ls, rs := splitSides(members[at[c]:at[c+1]], nL)
		sumL, sumR := 0.0, 0.0
		for _, v := range ls {
			sumL += impact[v]
		}
		for _, v := range rs {
			sumR += impact[v]
		}
		if math.Abs(sumL-sumR) > 1e-4 {
			right := make([]int, len(rs))
			for k, v := range rs {
				right[k] = v - nL
			}
			return fmt.Errorf("core: component containing left %v right %v violates impact equality: %v vs %v", ls, right, sumL, sumR)
		}
	}
	return nil
}
