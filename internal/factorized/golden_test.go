package factorized

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"dmml/internal/la"
	"dmml/internal/workload"
)

// gramGoldenPath holds one line per golden tree: its name and the SHA-256 of
// its Gram's Float64bits, little-endian in row-major order. The file was
// written from gramGoldenLines at the commit before the Gram's cross blocks
// became concurrent push chains, so it pins today's bits to that
// implementation's, not merely to a tolerance of the materialized Gram.
const gramGoldenPath = "testdata/gram_golden.txt"

// goldenSnowflake is a reduced copy of the benchmark's train_join schema:
// two depth-2 branches (fact→customer→region, fact→product→category) plus a
// key-only link (fact→store→city). It is large enough that the fact
// relation's syrk runs as a multi-chunk pool.Reduce grid and the cross phase
// clears its concurrency cutoff.
func goldenSnowflake() (*workload.Snowflake, error) {
	return workload.GenerateSnowflake(rand.New(rand.NewSource(31)), workload.SnowflakeConfig{
		FactRows:  30000,
		FactFeats: 6,
		Nodes: []workload.SnowNode{
			{Rows: 1500, Feats: 10, Parent: -1}, // customer
			{Rows: 50, Feats: 30, Parent: 0},    // region ← customer
			{Rows: 2000, Feats: 8, Parent: -1},  // product
			{Rows: 100, Feats: 24, Parent: 2},   // category ← product
			{Rows: 400, Feats: 0, Parent: -1},   // store (key-only link)
			{Rows: 60, Feats: 5, Parent: 4},     // city ← store
		},
		Task:   workload.RegressionTask,
		Signal: 1,
	})
}

// gramGoldenTrees returns the golden trees by name: the reduced snowflake and
// 50 randSnowflake trees (seeds whose config is rejected are skipped).
func gramGoldenTrees(t *testing.T) (names []string, trees []*JoinTree) {
	t.Helper()
	s, err := goldenSnowflake()
	if err != nil {
		t.Fatal(err)
	}
	names, trees = append(names, "snowflake"), append(trees, treeFromSnowflake(t, s))
	for seed := int64(0); len(trees) < 51; seed++ {
		s, err := randSnowflake(rand.New(rand.NewSource(seed)))
		if err != nil {
			continue
		}
		names, trees = append(names, fmt.Sprintf("rand%d", seed)), append(trees, treeFromSnowflake(t, s))
	}
	return names, trees
}

// gramDigest hashes a Gram's bits.
func gramDigest(g *la.Dense) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range g.RawData() {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// gramGoldenLines computes the golden file's lines at the current
// GOMAXPROCS.
func gramGoldenLines(t *testing.T) []string {
	t.Helper()
	names, trees := gramGoldenTrees(t)
	lines := make([]string, len(trees))
	for i, tr := range trees {
		lines[i] = names[i] + " " + gramDigest(tr.Gram())
	}
	return lines
}

// GramInto must reproduce the golden bits at GOMAXPROCS 1, 2 and 4: the
// cross blocks may run in any order on any worker, but each is computed by
// one writer in a fixed arithmetic order.
func TestGramIntoGoldenBits(t *testing.T) {
	f, err := os.Open(gramGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, p := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(p)
		got := gramGoldenLines(t)
		if len(got) != len(want) {
			t.Fatalf("GOMAXPROCS=%d: %d golden trees, file has %d", p, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("GOMAXPROCS=%d: got %q, golden %q", p, got[i], want[i])
			}
		}
	}
}
