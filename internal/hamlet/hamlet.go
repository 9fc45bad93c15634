// Package hamlet reproduces the "to join or not to join" decision rules of
// Hamlet (Kumar et al., SIGMOD'16), which the paper surveys: when training a
// classifier over a fact table S joined with a dimension table R through a
// foreign key FK, the features of R are a deterministic function of FK, so
// dropping the join (and keeping FK itself as a feature) cannot add bias —
// only variance. Hamlet's conservative rules flag joins that are safe to
// avoid using only schema cardinalities:
//
//   - tuple ratio   TR = |S| / |R|   — higher means more examples per
//     distinct FK value, taming the variance of the FK representation;
//   - feature ratio FR = d_R / d_S  — higher means the join drags in many
//     redundant columns, increasing the payoff of avoiding it.
package hamlet

import (
	"fmt"
	"math"
	"math/rand"

	"dmml/internal/la"
	"dmml/internal/ml"
	"dmml/internal/opt"
	"dmml/internal/workload"
)

// Rule holds the decision thresholds. Hamlet's conservative defaults are a
// tuple-ratio threshold of 20 (their ρ) with no feature-ratio override.
type Rule struct {
	// TupleRatioThreshold ρ: avoid the join when TR ≥ ρ.
	TupleRatioThreshold float64
	// FeatureRatioBoost lowers the effective ρ when FR is large: with
	// FR ≥ 1, ρ_eff = ρ / FR (capped at ρ). Zero disables the boost.
	FeatureRatioBoost bool
}

// DefaultRule returns Hamlet's conservative tuple-ratio-20 rule.
func DefaultRule() Rule { return Rule{TupleRatioThreshold: 20} }

// Decision is the outcome of applying the rule to one dimension table.
type Decision struct {
	TupleRatio   float64
	FeatureRatio float64
	Avoid        bool
	Reason       string
}

// Decide applies the rule to schema cardinalities.
func (r Rule) Decide(factRows, dimRows, factFeats, dimFeats int) (Decision, error) {
	if factRows <= 0 || dimRows <= 0 || factFeats <= 0 || dimFeats <= 0 {
		return Decision{}, fmt.Errorf("hamlet: all cardinalities must be positive")
	}
	if r.TupleRatioThreshold <= 0 {
		return Decision{}, fmt.Errorf("hamlet: tuple-ratio threshold must be positive")
	}
	d := Decision{
		TupleRatio:   float64(factRows) / float64(dimRows),
		FeatureRatio: float64(dimFeats) / float64(factFeats),
	}
	eff := r.TupleRatioThreshold
	if r.FeatureRatioBoost && d.FeatureRatio > 1 {
		eff = math.Max(1, r.TupleRatioThreshold/d.FeatureRatio)
	}
	if d.TupleRatio >= eff {
		d.Avoid = true
		d.Reason = fmt.Sprintf("tuple ratio %.1f ≥ effective threshold %.1f", d.TupleRatio, eff)
	} else {
		d.Reason = fmt.Sprintf("tuple ratio %.1f < effective threshold %.1f", d.TupleRatio, eff)
	}
	return d, nil
}

// OneHot encodes foreign-key codes as a sparse indicator matrix with card
// columns.
func OneHot(fk []int, card int) (*la.CSR, error) {
	coords := make([]la.Coord, len(fk))
	for i, v := range fk {
		if v < 0 || v >= card {
			return nil, fmt.Errorf("hamlet: fk code %d out of range [0,%d)", v, card)
		}
		coords[i] = la.Coord{Row: i, Col: v, Val: 1}
	}
	return la.FromCoords(len(fk), card, coords)
}

// EmpiricalResult compares held-out accuracy of the joined representation
// against the avoided-join (FK one-hot) representation for one dimension.
type EmpiricalResult struct {
	Decision   Decision
	AccJoined  float64
	AccAvoided float64
}

// Gap returns AccJoined − AccAvoided (positive = the join helped).
func (e EmpiricalResult) Gap() float64 { return e.AccJoined - e.AccAvoided }

// CompareEmpirical trains logistic regression by batch gradient descent twice
// around node, a dimension that joins the fact table: once with the node's
// features joined in, once with the join avoided (its feature block replaced
// by a one-hot FK encoding). It reports held-out accuracies with the rule's
// decision. The schema must be a classification task.
func CompareEmpirical(s *workload.Snowflake, node int, rule Rule, testFrac float64, seed int64) (*EmpiricalResult, error) {
	if node < 1 || node >= len(s.X) || s.Parents[node] != 0 || s.X[node] == nil {
		return nil, fmt.Errorf("hamlet: node %d is not a dimension of the fact table", node)
	}
	if s.Config.Task != workload.ClassificationTask {
		return nil, fmt.Errorf("hamlet: CompareEmpirical needs a classification schema")
	}
	if testFrac <= 0 || testFrac >= 1 {
		return nil, fmt.Errorf("hamlet: test fraction %v out of (0,1)", testFrac)
	}
	dec, err := rule.Decide(s.Rows[0], s.Rows[node], s.X[0].Cols(), s.X[node].Cols())
	if err != nil {
		return nil, err
	}

	joined := s.Materialize()

	// Avoided representation: all blocks except the node's, plus one-hot FK.
	oneHot, err := OneHot(s.FKs[node], s.Rows[node])
	if err != nil {
		return nil, err
	}
	keepCols := make([]int, 0, joined.Cols())
	lo := 0
	for _, x := range s.X[:node] {
		if x != nil {
			lo += x.Cols()
		}
	}
	hi := lo + s.X[node].Cols()
	for j := 0; j < joined.Cols(); j++ {
		if j < lo || j >= hi {
			keepCols = append(keepCols, j)
		}
	}
	avoided, err := la.HCat(joined.SelectCols(keepCols), oneHot.ToDense())
	if err != nil {
		return nil, err
	}

	// Shared train/test split.
	rng := rand.New(rand.NewSource(seed))
	n := s.Rows[0]
	perm := rng.Perm(n)
	nTest := int(float64(n) * testFrac)
	if nTest == 0 || nTest == n {
		return nil, fmt.Errorf("hamlet: degenerate split with %d rows", n)
	}
	testIdx, trainIdx := perm[:nTest], perm[nTest:]
	yTrain := make([]float64, len(trainIdx))
	yTest := make([]float64, len(testIdx))
	for i, r := range trainIdx {
		yTrain[i] = s.Y[r]
	}
	for i, r := range testIdx {
		yTest[i] = s.Y[r]
	}

	evalOn := func(x *la.Dense) (float64, error) {
		res, err := opt.GradientDescent(opt.DenseData{M: x.SelectRows(trainIdx)}, yTrain, opt.Logistic{},
			opt.GDConfig{Step: 0.5, L2: 1e-3, MaxIter: 80, Tol: 1e-9, Backtracking: true})
		if err != nil {
			return 0, err
		}
		pred := la.MatVec(x.SelectRows(testIdx), res.W)
		for i, m := range pred {
			if m >= 0 {
				pred[i] = 1
			} else {
				pred[i] = -1
			}
		}
		return ml.Accuracy(pred, yTest), nil
	}
	accJoined, err := evalOn(joined)
	if err != nil {
		return nil, err
	}
	accAvoided, err := evalOn(avoided)
	if err != nil {
		return nil, err
	}
	return &EmpiricalResult{Decision: dec, AccJoined: accJoined, AccAvoided: accAvoided}, nil
}
