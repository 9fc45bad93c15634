package workload

import (
	"fmt"
	"math/rand"

	"dmml/internal/la"
	"dmml/internal/relational"
	"dmml/internal/storage"
)

// Task selects the target type for generated normalized schemas.
type Task int

// Task values.
const (
	RegressionTask Task = iota
	ClassificationTask
)

// SnowNode describes one non-root relation of a snowflake schema. Parent is
// the index of the relation it joins into: -1 for the fact table, otherwise
// the index of an earlier SnowNode. Feats may be 0 for a key-only link
// relation.
type SnowNode struct {
	Rows, Feats int
	Parent      int
}

// SnowflakeConfig parameterizes a multi-level normalized schema — the
// workload of the join-tree factorized-learning experiments. Node k of the
// generated tree is Nodes[k-1]; node 0 is the fact table.
type SnowflakeConfig struct {
	FactRows  int
	FactFeats int
	Nodes     []SnowNode
	Task      Task
	Noise     float64 // label noise (regression: σ; classification: flip prob)
	// Signal scales the true weights on non-fact features (1 = same scale
	// as fact features).
	Signal float64
}

func (c SnowflakeConfig) validate() error {
	if c.FactRows <= 0 || c.FactFeats <= 0 {
		return fmt.Errorf("workload: snowflake needs positive fact rows/features")
	}
	for k, nd := range c.Nodes {
		if nd.Rows <= 0 || nd.Feats < 0 {
			return fmt.Errorf("workload: snowflake node %d needs positive rows and non-negative features", k)
		}
		if nd.Parent < -1 || nd.Parent >= k {
			return fmt.Errorf("workload: snowflake node %d parent %d must be -1 (fact) or an earlier node", k, nd.Parent)
		}
	}
	return nil
}

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

// Snowflake is a generated normalized schema in join-tree form: X[0] is the
// fact table, X[1+k] realizes Nodes[k] (nil when it has no features),
// Parents[1+k] is its parent's node index, and FKs[1+k] maps each parent row
// to its row. WTrue spans the joined feature vector in node order. A star is
// the one-level case: every node's parent is the fact table.
type Snowflake struct {
	Config  SnowflakeConfig
	X       []*la.Dense
	Rows    []int
	Parents []int // Parents[0] = -1
	FKs     [][]int
	Y       []float64
	WTrue   []float64
}

// GenerateStar builds a star per the config: dimension k is node 1+k, joined
// into the fact table. Its true weights are drawn before the data.
func GenerateStar(r *rand.Rand, cfg StarConfig) (*Snowflake, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	nodes := make([]SnowNode, len(cfg.DimRows))
	for k := range nodes {
		nodes[k] = SnowNode{Rows: cfg.DimRows[k], Feats: cfg.DimFeats[k], Parent: -1}
	}
	s := newSnowflake(SnowflakeConfig{
		FactRows: cfg.FactRows, FactFeats: cfg.FactFeats, Nodes: nodes,
		Task: cfg.Task, Noise: cfg.Noise, Signal: cfg.DimSignal,
	})
	s.drawWeights(r)
	s.drawData(r)
	s.drawLabels(r)
	return s, nil
}

// GenerateSnowflake builds a Snowflake per the config. Its true weights are
// drawn after the data.
func GenerateSnowflake(r *rand.Rand, cfg SnowflakeConfig) (*Snowflake, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := newSnowflake(cfg)
	s.drawData(r)
	s.drawWeights(r)
	s.drawLabels(r)
	return s, nil
}

// newSnowflake shapes a valid config's tree with every value still zero.
func newSnowflake(cfg SnowflakeConfig) *Snowflake {
	n := 1 + len(cfg.Nodes)
	s := &Snowflake{
		Config:  cfg,
		X:       make([]*la.Dense, n),
		Rows:    make([]int, n),
		Parents: make([]int, n),
		FKs:     make([][]int, n),
	}
	s.Rows[0], s.Parents[0] = cfg.FactRows, -1
	s.X[0] = la.NewDense(cfg.FactRows, cfg.FactFeats)
	for k, nd := range cfg.Nodes {
		v := 1 + k
		s.Rows[v], s.Parents[v] = nd.Rows, nd.Parent+1
		if nd.Feats > 0 {
			s.X[v] = la.NewDense(nd.Rows, nd.Feats)
		}
		s.FKs[v] = make([]int, s.Rows[s.Parents[v]])
	}
	return s
}

// drawData fills X[0], then each node's X and FK in node order.
func (s *Snowflake) drawData(r *rand.Rand) {
	for v, x := range s.X {
		if x != nil {
			for i := 0; i < x.Rows(); i++ {
				row := x.RowView(i)
				for j := range row {
					row[j] = r.NormFloat64()
				}
			}
		}
		for i := range s.FKs[v] {
			s.FKs[v][i] = r.Intn(s.Rows[v])
		}
	}
}

// drawWeights draws WTrue: scale 1 on fact features, Signal on the rest.
func (s *Snowflake) drawWeights(r *rand.Rand) {
	s.WTrue = make([]float64, 0, s.TotalFeatures())
	for v, x := range s.X {
		if x == nil {
			continue
		}
		scale := s.Config.Signal
		if v == 0 {
			scale = 1
		}
		for j := 0; j < x.Cols(); j++ {
			s.WTrue = append(s.WTrue, scale*r.NormFloat64())
		}
	}
}

// drawLabels labels each fact row from its joined feature vector.
func (s *Snowflake) drawLabels(r *rand.Rand) {
	cfg := s.Config
	s.Y = make([]float64, cfg.FactRows)
	key := make([]int, len(s.X))
	buf := make([]float64, len(s.WTrue))
	for i := range s.Y {
		s.joinedRow(key, i, buf)
		margin := la.Dot(s.WTrue, buf)
		switch cfg.Task {
		case RegressionTask:
			s.Y[i] = margin + cfg.Noise*r.NormFloat64()
		case ClassificationTask:
			if margin >= 0 {
				s.Y[i] = 1
			} else {
				s.Y[i] = -1
			}
			if r.Float64() < cfg.Noise {
				s.Y[i] = -s.Y[i]
			}
		}
	}
}

// TotalFeatures is the width of the joined feature vector.
func (s *Snowflake) TotalFeatures() int {
	total := 0
	for _, x := range s.X {
		if x != nil {
			total += x.Cols()
		}
	}
	return total
}

// joinedRow writes fact row i's joined feature vector into row, resolving
// each node's row into key on the way.
func (s *Snowflake) joinedRow(key []int, i int, row []float64) {
	key[0] = i
	at := 0
	// Nodes are parent-before-child by construction, so one forward pass
	// resolves every composed key.
	for v, x := range s.X {
		if v > 0 {
			key[v] = s.FKs[v][key[s.Parents[v]]]
		}
		if x != nil {
			at += copy(row[at:], x.RowView(key[v]))
		}
	}
}

// Materialize produces the fully joined feature matrix (the baseline the
// materialized-learning variants train on) without going through the
// relational engine.
func (s *Snowflake) Materialize() *la.Dense {
	out := la.NewDense(s.Config.FactRows, s.TotalFeatures())
	key := make([]int, len(s.X))
	for i := 0; i < s.Config.FactRows; i++ {
		s.joinedRow(key, i, out.RowView(i))
	}
	return out
}

// Tables renders the schema as relational tables, one per node in node
// order. Node v's table has columns (id, fk<c> for each child c, x<v>_0 …
// x<v>_<d-1>), where id is the row number and fk<c> the child row it joins;
// the fact table ends with a label column. A key-only link has only its id
// and fk columns.
func (s *Snowflake) Tables() ([]*storage.Table, error) {
	tables := make([]*storage.Table, len(s.X))
	for v, x := range s.X {
		fields := []storage.Field{{Name: "id", Type: storage.Int64}}
		var children []int
		for c := v + 1; c < len(s.X); c++ {
			if s.Parents[c] == v {
				children = append(children, c)
				fields = append(fields, storage.Field{Name: fmt.Sprintf("fk%d", c), Type: storage.Int64})
			}
		}
		cols := 0
		if x != nil {
			cols = x.Cols()
		}
		for j := 0; j < cols; j++ {
			fields = append(fields, storage.Field{Name: fmt.Sprintf("x%d_%d", v, j), Type: storage.Float64})
		}
		if v == 0 {
			fields = append(fields, storage.Field{Name: "label", Type: storage.Float64})
		}
		schema, err := storage.NewSchema(fields...)
		if err != nil {
			return nil, err
		}
		t := storage.NewTable(schema)
		vals := make([]any, len(fields))
		for i := 0; i < s.Rows[v]; i++ {
			vals[0] = int64(i)
			for k, c := range children {
				vals[1+k] = int64(s.FKs[c][i])
			}
			for j := 0; j < cols; j++ {
				vals[1+len(children)+j] = x.At(i, j)
			}
			if v == 0 {
				vals[len(vals)-1] = s.Y[i]
			}
			if err := t.AppendRow(vals...); err != nil {
				return nil, err
			}
		}
		tables[v] = t
	}
	return tables, nil
}

// JoinedMatrix is the classic pipeline's answer to Materialize: it renders
// the schema as Tables, hash-joins them through the relational engine in
// node order (parents first, each on fk<v> = id) and projects the feature
// columns, in Materialize's order, into a matrix. It is the independent
// reference Materialize is checked against.
func (s *Snowflake) JoinedMatrix() (*la.Dense, error) {
	tables, err := s.Tables()
	if err != nil {
		return nil, err
	}
	joined := tables[0]
	var cols []string
	for v, x := range s.X {
		if v > 0 {
			if joined, err = relational.HashJoin(joined, tables[v], fmt.Sprintf("fk%d", v), "id"); err != nil {
				return nil, err
			}
		}
		if x != nil {
			for j := 0; j < x.Cols(); j++ {
				cols = append(cols, fmt.Sprintf("x%d_%d", v, j))
			}
		}
	}
	return storage.ToMatrix(joined, cols)
}
