package featureng

import (
	"math"
	"math/rand"
	"testing"

	"dmml/internal/la"
	"dmml/internal/workload"
)

func subsetsFor(d, count, size int, seed int64) [][]int {
	r := rand.New(rand.NewSource(seed))
	out := make([][]int, count)
	for i := range out {
		out[i] = r.Perm(d)[:size]
	}
	return out
}

func TestExploreReuseMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(143))
	x, y, _ := workload.Regression(r, 400, 12, 0.1)
	subsets := subsetsFor(12, 10, 5, 7)
	naive := &Explorer{L2: 0.1}
	reuse := &Explorer{Reuse: true, L2: 0.1}
	fitsN, statsN, err := naive.Explore(x, y, subsets)
	if err != nil {
		t.Fatal(err)
	}
	fitsR, statsR, err := reuse.Explore(x, y, subsets)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fitsN {
		for j := range fitsN[i].W {
			if math.Abs(fitsN[i].W[j]-fitsR[i].W[j]) > 1e-8 {
				t.Fatalf("subset %d w[%d]: naive %v vs reuse %v", i, j, fitsN[i].W[j], fitsR[i].W[j])
			}
		}
		if math.Abs(fitsN[i].TrainMSE-fitsR[i].TrainMSE) > 1e-8 {
			t.Fatalf("subset %d MSE: %v vs %v", i, fitsN[i].TrainMSE, fitsR[i].TrainMSE)
		}
	}
	// The whole point: reuse does 1 data pass, naive does one per subset.
	if statsR.DataPasses != 1 {
		t.Fatalf("reuse passes = %d", statsR.DataPasses)
	}
	if statsN.DataPasses != 10 {
		t.Fatalf("naive passes = %d", statsN.DataPasses)
	}
}

func TestExploreTrainMSEIsAccurate(t *testing.T) {
	r := rand.New(rand.NewSource(144))
	x, y, _ := workload.Regression(r, 300, 6, 0.2)
	full := []int{0, 1, 2, 3, 4, 5}
	fits, _, err := (&Explorer{Reuse: true, L2: 1e-9}).Explore(x, y, [][]int{full})
	if err != nil {
		t.Fatal(err)
	}
	// Direct residual computation must agree with the Gram-space MSE.
	pred := la.MatVec(x, fits[0].W)
	var direct float64
	for i := range y {
		d := pred[i] - y[i]
		direct += d * d
	}
	direct /= float64(len(y))
	if math.Abs(direct-fits[0].TrainMSE) > 1e-6 {
		t.Fatalf("gram-space MSE %v vs direct %v", fits[0].TrainMSE, direct)
	}
}

func TestExploreCoreset(t *testing.T) {
	r := rand.New(rand.NewSource(145))
	x, y, _ := workload.Regression(r, 2000, 8, 0.05)
	subsets := [][]int{{0, 1, 2, 3, 4, 5, 6, 7}}
	full, _, err := (&Explorer{Reuse: true, L2: 0.01}).Explore(x, y, subsets)
	if err != nil {
		t.Fatal(err)
	}
	coreset, _, err := (&Explorer{Reuse: true, L2: 0.01, CoresetFrac: 0.25, Seed: 5}).Explore(x, y, subsets)
	if err != nil {
		t.Fatal(err)
	}
	// Coreset estimates approximate the full fit.
	for j := range full[0].W {
		if math.Abs(full[0].W[j]-coreset[0].W[j]) > 0.1 {
			t.Fatalf("coreset w[%d] = %v, full %v", j, coreset[0].W[j], full[0].W[j])
		}
	}
}

func TestExploreValidation(t *testing.T) {
	x := la.NewDense(10, 3)
	y := make([]float64, 10)
	e := &Explorer{L2: 0.1}
	if _, _, err := e.Explore(x, y[:5], [][]int{{0}}); err == nil {
		t.Fatal("want label mismatch error")
	}
	if _, _, err := e.Explore(x, y, nil); err == nil {
		t.Fatal("want no-subsets error")
	}
	if _, _, err := e.Explore(x, y, [][]int{{}}); err == nil {
		t.Fatal("want empty subset error")
	}
	if _, _, err := e.Explore(x, y, [][]int{{9}}); err == nil {
		t.Fatal("want range error")
	}
}
