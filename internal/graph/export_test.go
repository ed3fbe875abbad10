package graph

// RelabelByDegree exposes the uncached degree relabel behind
// DegreeOrdered to the external tests, which compare it with a
// comparison-sort reference and benchmark it.
var RelabelByDegree = (*Bipartite).relabelByDegree
