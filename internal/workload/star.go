package workload

import (
	"fmt"
	"math/rand"

	"dmml/internal/la"
	"dmml/internal/relational"
	"dmml/internal/storage"
)

// Task selects the target type for generated star schemas.
type Task int

// Task values.
const (
	RegressionTask Task = iota
	ClassificationTask
)

// StarConfig parameterizes a normalized star schema S ⋉ R₁ ⋉ … ⋉ R_K, the
// workload of the factorized-learning (Orion/F) and avoid-joins (Hamlet)
// experiments. The tuple ratio of dimension k is FactRows/DimRows[k]; the
// feature ratio is DimFeats[k]/FactFeats.
type StarConfig struct {
	FactRows  int
	FactFeats int
	DimRows   []int
	DimFeats  []int
	Task      Task
	Noise     float64 // label noise (regression: σ; classification: flip prob)
	// DimSignal scales the true weights on dimension features. 0 makes the
	// label independent of all dimension tables (Hamlet's "safe to drop"
	// regime); 1 gives them the same weight scale as fact features.
	DimSignal float64
}

func (c StarConfig) validate() error {
	if c.FactRows <= 0 || c.FactFeats <= 0 {
		return fmt.Errorf("workload: star needs positive fact rows/features")
	}
	if len(c.DimRows) == 0 || len(c.DimRows) != len(c.DimFeats) {
		return fmt.Errorf("workload: DimRows and DimFeats must be non-empty and equal length")
	}
	for k := range c.DimRows {
		if c.DimRows[k] <= 0 || c.DimFeats[k] <= 0 {
			return fmt.Errorf("workload: dimension %d needs positive rows/features", k)
		}
	}
	return nil
}

// Star is a generated normalized schema with both the raw-array view used by
// factorized learning and a relational-table view used by the join engine.
type Star struct {
	Config StarConfig
	FactX  *la.Dense   // FactRows × FactFeats
	Y      []float64   // labels, len FactRows
	FKs    [][]int     // per dimension: len FactRows, row index into DimX[k]
	DimX   []*la.Dense // per dimension: DimRows[k] × DimFeats[k]
	WTrue  []float64   // over [fact feats | dim1 feats | dim2 feats | ...]
}

// GenerateStar builds a Star per the config.
func GenerateStar(r *rand.Rand, cfg StarConfig) (*Star, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Star{Config: cfg}
	totalFeats := cfg.FactFeats
	for _, d := range cfg.DimFeats {
		totalFeats += d
	}
	s.WTrue = make([]float64, totalFeats)
	for j := 0; j < cfg.FactFeats; j++ {
		s.WTrue[j] = r.NormFloat64()
	}
	at := cfg.FactFeats
	for k := range cfg.DimFeats {
		for j := 0; j < cfg.DimFeats[k]; j++ {
			s.WTrue[at] = cfg.DimSignal * r.NormFloat64()
			at++
		}
	}

	s.FactX = la.NewDense(cfg.FactRows, cfg.FactFeats)
	for i := 0; i < cfg.FactRows; i++ {
		row := s.FactX.RowView(i)
		for j := range row {
			row[j] = r.NormFloat64()
		}
	}
	s.DimX = make([]*la.Dense, len(cfg.DimRows))
	s.FKs = make([][]int, len(cfg.DimRows))
	for k := range cfg.DimRows {
		s.DimX[k] = la.NewDense(cfg.DimRows[k], cfg.DimFeats[k])
		for i := 0; i < cfg.DimRows[k]; i++ {
			row := s.DimX[k].RowView(i)
			for j := range row {
				row[j] = r.NormFloat64()
			}
		}
		fk := make([]int, cfg.FactRows)
		for i := range fk {
			fk[i] = r.Intn(cfg.DimRows[k])
		}
		s.FKs[k] = fk
	}

	// Labels from the joined feature vector.
	s.Y = make([]float64, cfg.FactRows)
	buf := make([]float64, totalFeats)
	for i := 0; i < cfg.FactRows; i++ {
		s.joinedRow(i, buf)
		m := la.Dot(s.WTrue, buf)
		switch cfg.Task {
		case RegressionTask:
			s.Y[i] = m + cfg.Noise*r.NormFloat64()
		case ClassificationTask:
			if m >= 0 {
				s.Y[i] = 1
			} else {
				s.Y[i] = -1
			}
			if r.Float64() < cfg.Noise {
				s.Y[i] = -s.Y[i]
			}
		}
	}
	return s, nil
}

// TotalFeatures is the width of the joined feature vector.
func (s *Star) TotalFeatures() int { return len(s.WTrue) }

// joinedRow writes the joined feature vector for fact row i into buf.
func (s *Star) joinedRow(i int, buf []float64) {
	copy(buf, s.FactX.RowView(i))
	at := s.Config.FactFeats
	for k := range s.DimX {
		row := s.DimX[k].RowView(s.FKs[k][i])
		copy(buf[at:], row)
		at += s.Config.DimFeats[k]
	}
}

// Materialize produces the fully joined feature matrix (the input the
// "materialized learning" baseline trains on) without going through the
// relational engine.
func (s *Star) Materialize() *la.Dense {
	out := la.NewDense(s.Config.FactRows, s.TotalFeatures())
	for i := 0; i < s.Config.FactRows; i++ {
		s.joinedRow(i, out.RowView(i))
	}
	return out
}

// JoinedMatrix is the classic pipeline's answer to Materialize: it renders
// the star as tables, hash-joins the fact table with every dimension
// through the relational engine and projects the feature columns, in
// Materialize's order, into a matrix. It is the independent reference
// Materialize is checked against.
func (s *Star) JoinedMatrix() (*la.Dense, error) {
	fact, dims, err := s.Tables()
	if err != nil {
		return nil, err
	}
	joined := fact
	for k, dim := range dims {
		joined, err = relational.HashJoin(joined, dim, fmt.Sprintf("fk%d", k), "id",
			relational.JoinOptions{DropRightKey: true})
		if err != nil {
			return nil, err
		}
	}
	var cols []string
	for j := 0; j < s.Config.FactFeats; j++ {
		cols = append(cols, fmt.Sprintf("f%d", j))
	}
	for k, d := range s.Config.DimFeats {
		for j := 0; j < d; j++ {
			cols = append(cols, fmt.Sprintf("d%d_%d", k, j))
		}
	}
	return storage.ToMatrix(joined, cols)
}

// Tables renders the star as relational tables: a fact table with columns
// (fk0..fkK-1, f0..f{dS-1}, label) and one dimension table per k with
// columns (id, d0..d{dk-1}).
func (s *Star) Tables() (fact *storage.Table, dims []*storage.Table, err error) {
	var factFields []storage.Field
	for k := range s.DimX {
		factFields = append(factFields, storage.Field{Name: fmt.Sprintf("fk%d", k), Type: storage.Int64})
	}
	for j := 0; j < s.Config.FactFeats; j++ {
		factFields = append(factFields, storage.Field{Name: fmt.Sprintf("f%d", j), Type: storage.Float64})
	}
	factFields = append(factFields, storage.Field{Name: "label", Type: storage.Float64})
	factSchema, err := storage.NewSchema(factFields...)
	if err != nil {
		return nil, nil, err
	}
	fact = storage.NewTable(factSchema)
	vals := make([]any, len(factFields))
	for i := 0; i < s.Config.FactRows; i++ {
		at := 0
		for k := range s.DimX {
			vals[at] = int64(s.FKs[k][i])
			at++
		}
		for j := 0; j < s.Config.FactFeats; j++ {
			vals[at] = s.FactX.At(i, j)
			at++
		}
		vals[at] = s.Y[i]
		if err := fact.AppendRow(vals...); err != nil {
			return nil, nil, err
		}
	}

	for k := range s.DimX {
		fields := []storage.Field{{Name: "id", Type: storage.Int64}}
		for j := 0; j < s.Config.DimFeats[k]; j++ {
			fields = append(fields, storage.Field{Name: fmt.Sprintf("d%d_%d", k, j), Type: storage.Float64})
		}
		schema, err := storage.NewSchema(fields...)
		if err != nil {
			return nil, nil, err
		}
		dim := storage.NewTable(schema)
		dvals := make([]any, len(fields))
		for i := 0; i < s.Config.DimRows[k]; i++ {
			dvals[0] = int64(i)
			for j := 0; j < s.Config.DimFeats[k]; j++ {
				dvals[1+j] = s.DimX[k].At(i, j)
			}
			if err := dim.AppendRow(dvals...); err != nil {
				return nil, nil, err
			}
		}
		dims = append(dims, dim)
	}
	return fact, dims, nil
}
