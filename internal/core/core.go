// Package core is dmml's synthesis of the paper's survey: a cost-based
// planner for declarative ML training over data. Given a training task over
// either a joined (dense) matrix or a normalized acyclic join tree, it
// enumerates the physical plans the surveyed systems embody —
//
//   - access path: materialize the join vs. factorized learning (Orion/F),
//   - representation: dense vs. compressed linear algebra (CLA) vs.
//     out-of-core block paging,
//   - solver: direct normal equations vs. iterative gradient descent,
//
// costs each with a flops/bytes model, picks the cheapest that fits the
// memory budget, and executes it. Every representation is handed to the
// solvers through the opt.Data contract its engine already implements: the
// in-memory opt.BulkData, or the out-of-core opt.BlockData stream. Explain
// output exposes the whole plan table so the choice is auditable.
package core

import (
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"

	"dmml/internal/compress"
	"dmml/internal/factorized"
	"dmml/internal/la"
	"dmml/internal/ooc"
	"dmml/internal/opt"
	"dmml/internal/storage"
)

// LossKind selects the training objective.
type LossKind int

// Loss kinds.
const (
	// SquaredLoss trains linear (ridge) regression.
	SquaredLoss LossKind = iota
	// LogisticLoss trains a binary ±1 classifier.
	LogisticLoss
)

// String implements fmt.Stringer.
func (l LossKind) String() string {
	if l == SquaredLoss {
		return "squared"
	}
	return "logistic"
}

// Task is a declarative training request.
type Task struct {
	Loss LossKind
	// L2 is the ridge penalty; required > 0 for the direct solver when the
	// design may be rank-deficient.
	L2 float64
	// MaxIter bounds iterative solvers (default 100).
	MaxIter int
	// Step is the iterative step size (default 0.1, with backtracking).
	Step float64
}

func (t Task) withDefaults() Task {
	if t.MaxIter == 0 {
		t.MaxIter = 100
	}
	if t.Step == 0 {
		t.Step = 0.1
	}
	return t
}

func (t Task) lossFn() opt.Loss {
	if t.Loss == SquaredLoss {
		return opt.Squared{}
	}
	return opt.Logistic{}
}

// Options tunes the planner.
type Options struct {
	// memBudgetBytes caps the working-set estimate; plans whose working set
	// exceeds it pay a spill penalty. 0 = unlimited.
	memBudgetBytes int64
	// ForcePlan pins the plan choice (for ablations); empty = cost-based.
	ForcePlan string
}

const (
	// spillPenalty multiplies the cost of the bytes beyond the budget,
	// emulating disk-vs-memory bandwidth.
	spillPenalty = 8
	// compressSampleRows bounds the sample used to probe the compression
	// ratio.
	compressSampleRows = 2048
)

// PlanCost is one enumerated plan with its cost estimate.
type PlanCost struct {
	Name string
	// EstFlops is the modeled compute cost (flop-equivalents, including
	// spill penalties).
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
// opt.Data source or its Gram matrix, so representations differ only in
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
		PlanCost: PlanCost{Name: name, EstFlops: spillAdjust(flops, workingSet, p.o), WorkingSetBytes: workingSet},
		run:      run,
	})
}

// iterative is the solver of every "+iterative" plan: batch gradient descent
// over whatever representation the plan built.
func (p *planner) iterative(data opt.Data) ([]float64, error) {
	res, err := opt.GradientDescent(data, p.y, p.task.lossFn(),
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
// and reports its loss over ref, the request's own representation.
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
	loss, _, err := opt.LossAndGradient(ref, p.y, w, p.task.lossFn(), 0)
	if err != nil {
		return nil, fmt.Errorf("core: plan %s: final loss: %w", chosen.Name, err)
	}
	return &Result{W: w, Plan: chosen.Name, FinalLoss: loss, Explain: explain}, nil
}

// spillAdjust inflates cost when the working set exceeds the budget.
func spillAdjust(flops float64, workingSet int64, o Options) float64 {
	if o.memBudgetBytes <= 0 || workingSet <= o.memBudgetBytes {
		return flops
	}
	excess := float64(workingSet-o.memBudgetBytes) / float64(workingSet)
	return flops * (1 + excess*spillPenalty)
}

// TrainJoined plans and trains over an already-joined dense design matrix,
// choosing representation (dense vs. CLA-compressed vs. out-of-core paged)
// and solver (direct vs. iterative).
func TrainJoined(x *la.Dense, y []float64, task Task, o Options) (*Result, error) {
	task = task.withDefaults()
	n, d := x.Dims()
	if len(y) != n {
		return nil, fmt.Errorf("core: %d labels for %d rows", len(y), n)
	}

	// Probe compressibility on a sample, planned as the compressed plan runs.
	compressOpts := compress.Options{CoCode: true}
	sample := x
	if n > compressSampleRows {
		sample = x.Slice(0, compressSampleRows, 0, d)
	}
	ratio := compress.Compress(sample, compressOpts).CompressionRatio()

	denseBytes := int64(8 * n * d)
	comprBytes := int64(float64(denseBytes) / math.Max(ratio, 1e-9))
	iters := float64(task.MaxIter)
	matvecPair := 4 * float64(n) * float64(d) // X·w plus xᵀ·X per iteration

	p := &planner{y: y, task: task, o: o}
	if task.Loss == SquaredLoss {
		p.add("dense+direct", float64(n)*float64(d)*float64(d)+float64(d*d*d)/3, denseBytes, func() ([]float64, error) {
			return p.direct(la.Gram(x), la.XtY(x, y))
		})
	}
	p.add("dense+iterative", iters*matvecPair, denseBytes, func() ([]float64, error) {
		return p.iterative(opt.DenseData{M: x})
	})
	// Compressed iterative: per-op compute is comparable to dense (dictionary
	// lookups replace multiplies, at a small indirection premium), plus a
	// one-time compression pass; the win
	// is the smaller working set, which avoids the spill penalty — CLA's
	// actual value proposition.
	compressSetup := 4 * float64(n) * float64(d)
	p.add("compressed+iterative", iters*matvecPair*1.05+compressSetup, comprBytes, func() ([]float64, error) {
		return p.iterative(compress.Compress(x, compressOpts))
	})
	// Paged iterative: stream blocks through a buffer pool sized to the
	// budget. Sequential block I/O per iteration is modeled as cheaper than
	// the random-access thrash the dense plan would suffer, so this is the
	// fallback when the data neither fits nor compresses.
	if o.memBudgetBytes > 0 && denseBytes > o.memBudgetBytes {
		excess := float64(denseBytes-o.memBudgetBytes) / float64(denseBytes)
		ioCost := iters * matvecPair * excess * spillPenalty * 0.5
		p.add("paged+iterative", iters*matvecPair+ioCost, o.memBudgetBytes, func() ([]float64, error) {
			return p.paged(x)
		})
	}
	return p.execute(opt.DenseData{M: x})
}

// newSpillPool builds the paged plan's buffer pool; a variable so tests can
// inject spill I/O failures.
var newSpillPool = storage.NewBufferPoolBytes

// paged runs the out-of-core plan: x streams as row blocks (CLA-compressed
// where that pays, raw otherwise, sized by ooc from the pool's budget)
// through a buffer pool bounded by the memory budget, spilling to a temp
// directory that lives for the call.
func (p *planner) paged(x *la.Dense) ([]float64, error) {
	dir, err := os.MkdirTemp("", "dmml-core-paged-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	bp, err := newSpillPool(p.o.memBudgetBytes, dir)
	if err != nil {
		return nil, err
	}
	m, err := ooc.FromDense(bp, x, ooc.Options{Prefetch: true})
	if err != nil {
		return nil, err
	}
	w, err := p.iterative(m)
	if err = errors.Join(err, m.Drop()); err != nil {
		return nil, err
	}
	return w, nil
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
	if task.Loss == SquaredLoss {
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

// ExplainString renders a plan table.
func ExplainString(plans []PlanCost) string {
	out := ""
	for _, p := range plans {
		mark := " "
		if p.Chosen {
			mark = "*"
		}
		out += fmt.Sprintf("%s %-24s est=%.3g flops ws=%d bytes\n", mark, p.Name, p.EstFlops, p.WorkingSetBytes)
	}
	return out
}
