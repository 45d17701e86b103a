package mlkit

import (
	"math"
	"math/rand"
	"testing"
)

// duplicatedRows draws n rows of which about share are copies (fresh slices,
// same bits) of an earlier row at a random position — the shape of an
// interest window in which one (user, app, size) ran many times.
func duplicatedRows(rng *rand.Rand, n, dim int, share float64) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		if i > 0 && rng.Float64() < share {
			rows[i] = append([]float64(nil), rows[rng.Intn(i)]...)
			continue
		}
		rows[i] = make([]float64, dim)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	return rows
}

// TestGroupRowsMatchesPairwiseScan checks the classes against the O(n²)
// definition: row i belongs to the class of the first row with the same
// bits, and classes are numbered in order of those first rows.
func TestGroupRowsMatchesPairwiseScan(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rows := duplicatedRows(rng, 1+rng.Intn(120), 1+rng.Intn(5), []float64{0, 0.5, 0.9}[seed%3])
		g := groupRows(rows)
		var rep []int
		for i, row := range rows {
			first := i
			for j := 0; j < i; j++ {
				if compareBits(rows[j], row) == 0 {
					first = j
					break
				}
			}
			if first == i {
				rep = append(rep, i)
			}
			if got := g.rep[g.of[i]]; got != first {
				t.Fatalf("seed %d: row %d is in the class led by row %d, want %d", seed, i, got, first)
			}
		}
		if len(g.rep) != len(rep) {
			t.Fatalf("seed %d: %d classes, want %d", seed, len(g.rep), len(rep))
		}
		for c := range rep {
			if g.rep[c] != rep[c] {
				t.Fatalf("seed %d: class %d led by row %d, want %d (first-occurrence order)", seed, c, g.rep[c], rep[c])
			}
		}
	}
}

// TestGroupRowsKeysOnBits pins the grouping key: values that compare equal
// but differ in bits (±0) stay apart, values that compare unequal but share
// bits (one NaN payload) merge, and rows of different length never merge.
func TestGroupRowsKeysOnBits(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nanA := math.Float64frombits(0x7ff8000000000001)
	nanB := math.Float64frombits(0x7ff8000000000002)
	rows := [][]float64{
		{0, 1},       // 0
		{negZero, 1}, // 1: -0 == +0, different bits
		{nanA, 1},    // 2
		{nanB, 1},    // 3: another payload
		{nanA, 1},    // 4: same bits as 2 although NaN != NaN
		{0, 1},       // 5: copy of 0
		{0},          // 6: prefix of 0
		{},           // 7
		{},           // 8: copy of 7
	}
	want := []int{0, 1, 2, 3, 2, 0, 4, 5, 5}
	g := groupRows(rows)
	if g.distinct() != 6 {
		t.Errorf("distinct = %d, want 6", g.distinct())
	}
	for i, w := range want {
		if g.of[i] != w {
			t.Errorf("row %d in class %d, want %d", i, g.of[i], w)
		}
	}
	if e := groupRows(nil); e.distinct() != 0 || len(e.of) != 0 {
		t.Errorf("empty input grouped into %+v", e)
	}
}
