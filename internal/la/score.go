package la

import "fmt"

// Batch scoring entry point for the serving layer (internal/serve): many
// feature rows, one weight vector, one link function. The margins come out
// of the pooled GEMV kernel in a single call — this is where request
// batching pays off, amortizing dispatch, pool scheduling and cache misses
// across the whole admission batch — and the logistic link is a bias add
// plus the tile-vectorized sigmoid (the 8-lane software-pipelined exp
// kernel the fused templates use), both in place over the margin vector.

// Link selects the inverse link applied to a model's linear margin.
type Link uint8

const (
	// LinkIdentity leaves the margin untouched (linear regression).
	LinkIdentity Link = iota
	// LinkLogistic applies the sigmoid (logistic regression probability).
	LinkLogistic
)

// String names the link for protocol errors and logs.
func (l Link) String() string {
	switch l {
	case LinkIdentity:
		return "identity"
	case LinkLogistic:
		return "logistic"
	default:
		return fmt.Sprintf("Link(%d)", uint8(l))
	}
}

// ScoreRowsInto scores a batch of feature rows against one model:
// dst[i] = link(x.RowView(i)·w + bias). dst must have length x.Rows() and
// w length x.Cols(). The margins are produced by one pooled GEMV; the link
// then runs in place over dst and allocates nothing.
func ScoreRowsInto(dst []float64, x *Dense, w []float64, bias float64, link Link) []float64 {
	MatVecInto(dst, x, w)
	mScoreRows.Add(int64(x.rows))
	switch link {
	case LinkLogistic:
		vsAdd(dst, dst, bias)
		sigmoidTile(dst, dst)
	default:
		if bias != 0 {
			vsAdd(dst, dst, bias)
		}
	}
	return dst
}

// ScoreRow scores a single feature row: link(row·w + bias). This is the
// batch-size-1 reference path the serving benchmarks compare against; it
// matches ScoreRowsInto bit-for-bit on both links.
func ScoreRow(row, w []float64, bias float64, link Link) float64 {
	m := Dot(row, w) + bias
	mScoreRows.Inc()
	if link == LinkLogistic {
		return Sigmoid(m)
	}
	return m
}
