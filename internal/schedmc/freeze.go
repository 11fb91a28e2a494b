package schedmc

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/sched"
)

// FrozenSchedule is a list schedule compiled into flat executable form:
// the failure-free schedule itself (who runs where, in what order) plus
// the schedule DAG — original precedence edges and one chain edge between
// consecutive tasks on each processor — frozen into CSR arrays. The
// longest path through the schedule DAG under per-task duration
// inflation is exactly the makespan of executing the committed schedule,
// so every montecarlo consumer (fused sampler, lane kernel, quantile
// sketches) evaluates it unmodified.
//
// A FrozenSchedule is an immutable snapshot, safe for concurrent
// read-only use; the makespand registry caches one per
// (graph, policy, procs, λ) behind its LRU byte budget.
type FrozenSchedule struct {
	// Policy records which priority policy built the schedule.
	Policy Policy
	// Procs is the number of identical processors scheduled on.
	Procs int
	// Base is the failure-free list schedule the DAG was compiled from:
	// Start/Finish/Proc per task plus the exact dispatch order.
	Base sched.Schedule
	// Makespan is the failure-free scheduled makespan (== Base.Makespan,
	// and bit-identical to the frozen DAG's longest path — verified at
	// construction).
	Makespan float64
	// Graph is the schedule DAG. It is owned by the FrozenSchedule and
	// must not be mutated (the Frozen snapshot would go stale).
	Graph *dag.Graph
	// Frozen is the compiled CSR form of Graph that estimators run on.
	Frozen *dag.Frozen
	// ChainEdges counts the processor chain edges added on top of the
	// precedence edges (consecutive same-processor pairs not already
	// ordered by a precedence edge).
	ChainEdges int
}

// Freeze list-schedules g on procs identical processors with the given
// policy's priorities and compiles the result into its frozen schedule
// form. The failure model is consulted only by PolicyFirstOrder
// priorities; the schedule itself is always the failure-free one.
func Freeze(g *dag.Graph, policy Policy, procs int, model failure.Model) (*FrozenSchedule, error) {
	if procs < 1 {
		return nil, fmt.Errorf("schedmc: procs must be >= 1, got %d", procs)
	}
	prio, err := policy.Priorities(g, model)
	if err != nil {
		return nil, err
	}
	base, err := sched.ListSchedule(g, prio, procs)
	if err != nil {
		return nil, err
	}
	return freezeFromBase(g, policy, procs, base)
}

// freezeFromBase compiles an already-computed failure-free schedule.
func freezeFromBase(g *dag.Graph, policy Policy, procs int, base sched.Schedule) (*FrozenSchedule, error) {
	n := g.NumTasks()
	sd := dag.New(n)
	for i := 0; i < n; i++ {
		if _, err := sd.AddTask(g.Name(i), g.Weight(i)); err != nil {
			return nil, fmt.Errorf("schedmc: schedule DAG: %w", err)
		}
	}
	for u := 0; u < n; u++ {
		for _, v := range g.Succ(u) {
			if err := sd.AddEdge(u, v); err != nil {
				return nil, fmt.Errorf("schedmc: schedule DAG: %w", err)
			}
		}
	}
	// Chain edges from the dispatch record: consecutive tasks on one
	// processor execute back to back, so the later one waits for the
	// earlier one exactly like a precedence edge. Chain edges always point
	// forward in dispatch order (a task is dispatched only after its
	// predecessors finished), so the DAG stays acyclic by construction.
	last := make([]int, min(procs, n)) // list scheduling uses at most n processors
	for p := range last {
		last[p] = -1
	}
	chains := 0
	for _, task := range base.Order {
		p := base.Proc[task]
		if prev := last[p]; prev >= 0 && !sd.HasEdge(prev, task) {
			if err := sd.AddEdge(prev, task); err != nil {
				return nil, fmt.Errorf("schedmc: chain edge (%d,%d): %w", prev, task, err)
			}
			chains++
		}
		last[p] = task
	}
	frozen, err := dag.Freeze(sd)
	if err != nil {
		return nil, fmt.Errorf("schedmc: freeze schedule DAG: %w", err)
	}
	fs := &FrozenSchedule{
		Policy:     policy,
		Procs:      procs,
		Base:       base,
		Makespan:   base.Makespan,
		Graph:      sd,
		Frozen:     frozen,
		ChainEdges: chains,
	}
	// Invariant: the schedule DAG's longest path reproduces the simulated
	// schedule bit for bit — start times are max(predecessor finishes,
	// chain-predecessor finish), the same IEEE max/add chain the event
	// simulator performed. A mismatch means the compilation is wrong.
	if d := frozen.Makespan(); d != base.Makespan {
		return nil, fmt.Errorf("schedmc: internal error: schedule DAG makespan %v != simulated %v", d, base.Makespan)
	}
	return fs, nil
}

// Efficiency returns the failure-free parallel efficiency of the
// schedule: total work / (procs × makespan). 0 for an empty schedule.
func (fs *FrozenSchedule) Efficiency() float64 { return fs.EfficiencyOn(fs.Procs) }

// EfficiencyOn is Efficiency charged for procs processors. The schedule on
// procs ≥ n processors is the schedule on n, so a caller sharing one
// frozen schedule across such counts passes the count it was asked for.
func (fs *FrozenSchedule) EfficiencyOn(procs int) float64 {
	if fs.Makespan <= 0 {
		return 0
	}
	return fs.Graph.TotalWeight() / (float64(procs) * fs.Makespan)
}

// SizeBytes reports the approximate retained heap size of the frozen
// schedule — the schedule arrays, the schedule DAG and its frozen CSR
// form — for registry byte budgeting.
func (fs *FrozenSchedule) SizeBytes() int64 {
	n := int64(fs.Graph.NumTasks())
	s := n * (8 + 8 + 8 + 8 + 8) // Start, Finish, Proc, Attempts, Order
	s += n*64 + int64(fs.Graph.NumEdges())*16
	s += fs.Frozen.SizeBytes()
	return s + 128 // struct header
}
