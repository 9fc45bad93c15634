// Package core is dmml's synthesis of the paper's survey: a cost-based
// planner for declarative ML training over a normalized acyclic join tree.
// It enumerates the physical plans the surveyed systems embody —
//
//   - access path: materialize the join vs. factorized learning (Orion/F),
//   - solver: direct normal equations vs. iterative gradient descent,
//
// costs each with a flops/bytes model, and executes the cheapest. Every plan
// hands the solvers an opt.Data source its engine already implements: the
// join tree itself, or the dense matrix it materializes. The result's plan
// table exposes every considered plan so the choice is auditable.
package core

import (
	"fmt"
	"slices"
	"sort"

	"dmml/internal/factorized"
	"dmml/internal/la"
	"dmml/internal/opt"
)

// Task is a declarative training request.
type Task struct {
	// Loss is the training objective; nil means opt.Squared{} (ridge
	// regression). Direct plans are offered for opt.Squared only.
	Loss opt.Loss
	// L2 is the ridge penalty; required > 0 for the direct solver when the
	// design may be rank-deficient.
	L2 float64
	// MaxIter bounds iterative solvers (default 100).
	MaxIter int
	// Step is the iterative step size (default 0.1, with backtracking).
	Step float64
}

func (t Task) withDefaults() Task {
	if t.Loss == nil {
		t.Loss = opt.Squared{}
	}
	if t.MaxIter == 0 {
		t.MaxIter = 100
	}
	if t.Step == 0 {
		t.Step = 0.1
	}
	return t
}

// Options tunes the planner.
type Options struct {
	// ForcePlan pins the plan choice (for ablations); empty = cost-based.
	ForcePlan string
}

// PlanCost is one enumerated plan with its cost estimate.
type PlanCost struct {
	Name string
	// EstFlops is the modeled compute cost (flop-equivalents).
	EstFlops float64
	// WorkingSetBytes is the modeled resident working set.
	WorkingSetBytes int64
	Chosen          bool
}

// Result reports a planned-and-executed training run.
type Result struct {
	W         []float64
	Plan      string
	FinalLoss float64
	// Explain lists every considered plan, cheapest first.
	Explain []PlanCost
}

// plan is one row of the plan table: the cost estimate Explain reports plus
// the execution that produces the weights if the row is picked.
type plan struct {
	PlanCost
	run func() ([]float64, error)
}

// planner enumerates and executes plans for one training request. Every
// plan's execution bottoms out in one of its two solvers over an
// opt.Data source or its Gram matrix, so access paths differ only in
// which source they hand over.
type planner struct {
	y     []float64
	task  Task
	o     Options
	plans []plan
}

// add enumerates a plan with its modeled compute cost and working set.
func (p *planner) add(name string, flops float64, workingSet int64, run func() ([]float64, error)) {
	p.plans = append(p.plans, plan{
		PlanCost: PlanCost{Name: name, EstFlops: flops, WorkingSetBytes: workingSet},
		run:      run,
	})
}

// iterative is the solver of every "+iterative" plan: batch gradient descent
// over whatever source the plan built.
func (p *planner) iterative(data opt.Data) ([]float64, error) {
	res, err := opt.GradientDescent(data, p.y, p.task.Loss,
		opt.GDConfig{Step: p.task.Step, L2: p.task.L2, MaxIter: p.task.MaxIter, Tol: 1e-9, Backtracking: true})
	if err != nil {
		return nil, err
	}
	return res.W, nil
}

// direct is the solver of every "+direct" plan: ridge normal equations over
// the plan's Gram matrix g = XᵀX (modified in place) and c = Xᵀy.
func (p *planner) direct(g *la.Dense, c []float64) ([]float64, error) {
	for j := range c {
		g.Set(j, j, g.At(j, j)+p.task.L2)
	}
	return la.SolveSPD(g, c)
}

// execute sorts the table cheapest first, runs the cheapest (or forced) plan
// and reports its loss over ref, the request's own join tree.
func (p *planner) execute(ref opt.BulkData) (*Result, error) {
	sort.Slice(p.plans, func(i, j int) bool { return p.plans[i].EstFlops < p.plans[j].EstFlops })
	pick := 0
	if p.o.ForcePlan != "" {
		pick = slices.IndexFunc(p.plans, func(c plan) bool { return c.Name == p.o.ForcePlan })
		if pick < 0 {
			return nil, fmt.Errorf("core: forced plan %q is not a candidate", p.o.ForcePlan)
		}
	}
	chosen := &p.plans[pick]
	chosen.Chosen = true
	w, err := chosen.run()
	if err != nil {
		return nil, fmt.Errorf("core: plan %s: %w", chosen.Name, err)
	}
	explain := make([]PlanCost, len(p.plans))
	for i := range p.plans {
		explain[i] = p.plans[i].PlanCost
	}
	loss, _, err := opt.LossAndGradient(ref, p.y, w, p.task.Loss, 0)
	if err != nil {
		return nil, fmt.Errorf("core: plan %s: final loss: %w", chosen.Name, err)
	}
	return &Result{W: w, Plan: chosen.Name, FinalLoss: loss, Explain: explain}, nil
}

// TrainNormalized plans and trains over a normalized acyclic join tree (a
// star or any snowflake), choosing between factorized learning and
// materialize-then-train, and between the direct and iterative solvers.
func TrainNormalized(tree *factorized.JoinTree, y []float64, task Task, o Options) (*Result, error) {
	task = task.withDefaults()
	n, d := tree.Rows(), tree.Cols()
	if len(y) != n {
		return nil, fmt.Errorf("core: %d labels for %d rows", len(y), n)
	}

	iters := float64(task.MaxIter)
	// FlopsPerMatVec already models the full X·w plus xᵀ·X pair per
	// iteration, including cache-aware gather penalties along each edge.
	factIter := tree.FlopsPerMatVec()
	matIter := tree.FlopsPerMatVecMaterialized()
	materializeCost := 2 * float64(n) * float64(d) // write + first touch
	matBytes := int64(8 * n * d)
	factBytes := tree.ResidentBytes()

	p := &planner{y: y, task: task, o: o}
	p.add("factorized+iterative", iters*factIter, factBytes, func() ([]float64, error) {
		return p.iterative(tree)
	})
	p.add("materialized+iterative", materializeCost+iters*matIter, matBytes, func() ([]float64, error) {
		return p.iterative(opt.DenseData{M: tree.Materialize()})
	})
	if _, squared := task.Loss.(opt.Squared); squared {
		// F-style factorized normal equations vs. materialized ones.
		p.add("factorized+direct", tree.FlopsPerGram()+float64(d*d*d)/3, factBytes, func() ([]float64, error) {
			return p.direct(tree.Gram(), tree.XtY(y))
		})
		p.add("materialized+direct", materializeCost+float64(n)*float64(d)*float64(d)+float64(d*d*d)/3, matBytes, func() ([]float64, error) {
			m := tree.Materialize()
			return p.direct(la.Gram(m), la.XtY(m, y))
		})
	}
	return p.execute(tree)
}
