package graph

import "butterfly/internal/sparse"

// permutationByDegree returns a permutation perm where perm[newID] =
// oldID, ordering the rows of a by descending degree. It is one
// counting sort over the degrees, O(rows + max degree), and stable:
// ties keep ascending original id, making the relabeling deterministic.
func permutationByDegree(a *sparse.CSR) []int32 {
	maxDeg := 0
	for i := 0; i < a.R; i++ {
		maxDeg = max(maxDeg, a.RowDeg(i))
	}
	// next[k] is the first unused new id of the vertices of degree
	// maxDeg − k.
	next := make([]int32, maxDeg+2)
	for i := 0; i < a.R; i++ {
		next[maxDeg-a.RowDeg(i)+1]++
	}
	for k := 1; k < len(next); k++ {
		next[k] += next[k-1]
	}
	perm := make([]int32, a.R)
	for i := 0; i < a.R; i++ {
		k := maxDeg - a.RowDeg(i)
		perm[next[k]] = int32(i)
		next[k]++
	}
	return perm
}

// relabelByDegree returns a new graph with both vertex sets renumbered
// by descending degree, plus the permutations used (permV1[newID] =
// oldID, and likewise for V2). It costs O(|V1| + |V2| + |E|): counting
// sorts for the permutations, one pass writing the permuted rows and
// FromRows to sort them. DegreeOrdered caches its result.
func (g *Bipartite) relabelByDegree() (h *Bipartite, permV1, permV2 []int32) {
	m, n := g.NumV1(), g.NumV2()
	permV1 = permutationByDegree(g.adj)
	permV2 = permutationByDegree(g.adjT)

	// inv2[oldID] = newID.
	inv2 := make([]int32, n)
	for newID, oldID := range permV2 {
		inv2[oldID] = int32(newID)
	}
	rows := &sparse.CSR{R: m, C: n, Ptr: make([]int64, m+1), Col: make([]int32, g.NumEdges())}
	for newU, oldU := range permV1 {
		pos := rows.Ptr[newU]
		for _, v := range g.adj.Row(int(oldU)) {
			rows.Col[pos] = inv2[v]
			pos++
		}
		rows.Ptr[newU+1] = pos
	}
	return FromRows(rows), permV1, permV2
}
