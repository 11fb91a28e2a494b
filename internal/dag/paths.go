package dag

import "math"

// CountPaths returns the number of distinct source-to-sink paths, saturating
// at math.MaxFloat64. This is the quantity that makes exhaustive makespan
// enumeration infeasible and motivates the paper's approximation.
func CountPaths(g *Graph) (float64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return 0, err
	}
	n := g.NumTasks()
	count := make([]float64, n)
	total := 0.0
	for _, v := range order {
		if len(g.pred[v]) == 0 {
			count[v] = 1
		}
		for _, p := range g.pred[v] {
			count[v] += count[p]
		}
		if len(g.succ[v]) == 0 {
			total += count[v]
		}
	}
	if math.IsInf(total, 1) {
		total = math.MaxFloat64
	}
	return total, nil
}
