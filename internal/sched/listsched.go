// Package sched implements the list-scheduling extension the paper's
// conclusion proposes: classical CP-style list scheduling on a bounded
// number of processors, with task priorities computed either from
// deterministic bottom levels or from the failure-aware expected bottom
// levels of the First Order approximation, plus an event-driven execution
// simulator that injects silent errors and re-executes tasks, so the two
// priority schemes can be compared under failures.
package sched

import (
	"container/heap"
	"fmt"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/failure"
)

// Schedule is the outcome of one (deterministic or simulated) execution.
type Schedule struct {
	// Makespan is the completion time of the last task.
	Makespan float64
	// Start and Finish give each task's final (successful) execution
	// window; with failures, Start is the start of the first attempt.
	Start, Finish []float64
	// Proc is the processor each task ran on.
	Proc []int
	// Attempts is the number of executions of each task (1 = no failure).
	Attempts []int
	// Order is the dispatch sequence: task IDs in the order they were
	// started. Filtering Order by Proc yields each processor's exact
	// execution chain, with no tie ambiguity between tasks sharing a start
	// time (zero-weight structural tasks) — the record schedmc compiles
	// into per-processor chain edges.
	Order []int
}

// Priorities returns deterministic CP-scheduling priorities: the classic
// bottom level a_i + bl(i) (the length of the longest path from i to the
// end of the execution, inclusive).
func Priorities(g *dag.Graph) ([]float64, error) {
	bl, err := dag.BottomLevels(g)
	if err != nil {
		return nil, err
	}
	for i := range bl {
		bl[i] += g.Weight(i)
	}
	return bl, nil
}

// FailureAwarePriorities returns priorities from the First Order expected
// bottom levels: the expected longest path from each task to the end,
// accounting for re-executions at rate λ.
func FailureAwarePriorities(g *dag.Graph, model failure.Model) ([]float64, error) {
	return core.ExpectedBottomLevels(g, model)
}

// readyHeap orders ready tasks by descending priority, ties by task ID.
type readyHeap struct {
	ids  []int
	prio []float64
}

func (h *readyHeap) Len() int { return len(h.ids) }
func (h *readyHeap) Less(i, j int) bool {
	a, b := h.ids[i], h.ids[j]
	if h.prio[a] != h.prio[b] {
		return h.prio[a] > h.prio[b]
	}
	return a < b
}
func (h *readyHeap) Swap(i, j int)      { h.ids[i], h.ids[j] = h.ids[j], h.ids[i] }
func (h *readyHeap) Push(x interface{}) { h.ids = append(h.ids, x.(int)) }
func (h *readyHeap) Pop() interface{} {
	n := len(h.ids)
	v := h.ids[n-1]
	h.ids = h.ids[:n-1]
	return v
}

// event is a task completion on a processor.
type event struct {
	time float64
	proc int
	task int
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].task < h[j].task
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// Run executes list scheduling on nprocs identical processors with the
// given priorities. If model.Lambda > 0 and rng != nil, every execution
// attempt of a task of weight a fails with probability 1 − e^{−λa} and is
// re-executed on the same processor until it succeeds (the paper's silent
// error + verification discipline). With rng == nil the execution is
// failure-free and deterministic.
func Run(g *dag.Graph, prio []float64, nprocs int, model failure.Model, rng *rand.Rand) (Schedule, error) {
	n := g.NumTasks()
	if nprocs < 1 {
		return Schedule{}, fmt.Errorf("sched: nprocs must be >= 1, got %d", nprocs)
	}
	if len(prio) != n {
		return Schedule{}, fmt.Errorf("sched: %d priorities for %d tasks", len(prio), n)
	}
	if _, err := g.TopoOrder(); err != nil {
		return Schedule{}, err
	}
	s := Schedule{
		Start:    make([]float64, n),
		Finish:   make([]float64, n),
		Proc:     make([]int, n),
		Attempts: make([]int, n),
		Order:    make([]int, 0, n),
	}
	for i := range s.Proc {
		s.Proc[i] = -1
	}
	remainingPreds := make([]int, n)
	ready := &readyHeap{prio: prio}
	for i := 0; i < n; i++ {
		remainingPreds[i] = g.InDegree(i)
		if remainingPreds[i] == 0 {
			ready.ids = append(ready.ids, i)
		}
	}
	heap.Init(ready)

	// Only the first n processors can ever be used: the stack pops the
	// smallest never-used index, and index n would need all n below it
	// busy while another task is ready. So the stack holds at most n.
	freeProcs := make([]int, min(nprocs, n))
	for p := range freeProcs {
		freeProcs[p] = len(freeProcs) - 1 - p // pop smallest index first
	}
	running := &eventHeap{}
	now := 0.0
	scheduled := 0

	execTime := func(task int) float64 {
		a := g.Weight(task)
		attempts := 1
		if rng != nil && model.Lambda > 0 && a > 0 {
			pf := model.PFail(a)
			for rng.Float64() < pf {
				attempts++
			}
		}
		s.Attempts[task] = attempts
		return float64(attempts) * a
	}
	dispatch := func() {
		for len(freeProcs) > 0 && ready.Len() > 0 {
			p := freeProcs[len(freeProcs)-1]
			freeProcs = freeProcs[:len(freeProcs)-1]
			task := heap.Pop(ready).(int)
			s.Order = append(s.Order, task)
			s.Start[task] = now
			s.Proc[task] = p
			fin := now + execTime(task)
			s.Finish[task] = fin
			heap.Push(running, event{time: fin, proc: p, task: task})
			scheduled++
		}
	}
	dispatch()
	for running.Len() > 0 {
		ev := heap.Pop(running).(event)
		now = ev.time
		if now > s.Makespan {
			s.Makespan = now
		}
		freeProcs = append(freeProcs, ev.proc)
		for _, succ := range g.Succ(ev.task) {
			remainingPreds[succ]--
			if remainingPreds[succ] == 0 {
				heap.Push(ready, succ)
			}
		}
		// Drain simultaneous completions before dispatching so processor
		// choice is deterministic.
		for running.Len() > 0 && (*running)[0].time == now {
			ev2 := heap.Pop(running).(event)
			freeProcs = append(freeProcs, ev2.proc)
			for _, succ := range g.Succ(ev2.task) {
				remainingPreds[succ]--
				if remainingPreds[succ] == 0 {
					heap.Push(ready, succ)
				}
			}
		}
		dispatch()
	}
	if scheduled != n {
		return Schedule{}, fmt.Errorf("sched: scheduled %d of %d tasks (unreachable tasks?)", scheduled, n)
	}
	return s, nil
}

// ListSchedule runs failure-free list scheduling (deterministic).
func ListSchedule(g *dag.Graph, prio []float64, nprocs int) (Schedule, error) {
	return Run(g, prio, nprocs, failure.Model{}, nil)
}
