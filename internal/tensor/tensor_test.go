package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatal("set/at")
	}
	if len(m.Row(1)) != 3 || m.Row(1)[2] != 5 {
		t.Fatal("row view")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 0 {
		t.Fatal("clone must not alias")
	}
}

func TestFromSliceValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float64{1})
}

func TestMatMul(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if !almostEq(c.Data[i], w) {
			t.Fatalf("matmul[%d] = %f want %f", i, c.Data[i], w)
		}
	}
}

func TestMatMulTransforms(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(4, 3)
	b := New(4, 5)
	a.GaussianInit(rng, 1)
	b.GaussianInit(rng, 1)
	// aᵀ @ b two ways.
	got := MatMulTransA(a, b)
	want := MatMul(a.Transpose(), b)
	for i := range want.Data {
		if !almostEq(got.Data[i], want.Data[i]) {
			t.Fatal("MatMulTransA mismatch")
		}
	}
	c := New(5, 3)
	c.GaussianInit(rng, 1)
	got2 := MatMulTransB(a, c) // a @ cᵀ : 4x5
	want2 := MatMul(a, c.Transpose())
	for i := range want2.Data {
		if !almostEq(got2.Data[i], want2.Data[i]) {
			t.Fatal("MatMulTransB mismatch")
		}
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	b := FromSlice(1, 3, []float64{4, 5, 6})
	sum := a.Clone()
	sum.AddInPlace(b)
	if sum.Data[2] != 9 {
		t.Fatal("add")
	}
	sub := a.Clone()
	sub.SubInPlace(b)
	if sub.Data[0] != -3 {
		t.Fatal("sub")
	}
	mul := a.Clone()
	mul.MulInPlace(b)
	if mul.Data[1] != 10 {
		t.Fatal("mul")
	}
	sc := a.Clone()
	sc.ScaleInPlace(2)
	if sc.Data[2] != 6 {
		t.Fatal("scale")
	}
	ax := a.Clone()
	ax.Axpy(10, b)
	if ax.Data[0] != 41 {
		t.Fatal("axpy")
	}
	if Dot(a, b) != 32 {
		t.Fatal("dot")
	}
	if !almostEq(a.Norm2(), math.Sqrt(14)) {
		t.Fatal("norm")
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a := New(2, 2)
	b := New(2, 3)
	a.AddInPlace(b)
}

func TestRowL2Normalize(t *testing.T) {
	m := FromSlice(2, 2, []float64{3, 4, 0, 0})
	m.RowL2Normalize()
	if !almostEq(m.At(0, 0), 0.6) || !almostEq(m.At(0, 1), 0.8) {
		t.Fatalf("row0 = %v", m.Row(0))
	}
	if m.At(1, 0) != 0 || m.At(1, 1) != 0 {
		t.Fatal("zero row must stay zero")
	}
}

func TestConcatCols(t *testing.T) {
	a := FromSlice(2, 1, []float64{1, 2})
	b := FromSlice(2, 2, []float64{3, 4, 5, 6})
	c := ConcatCols(a, b)
	if c.Rows != 2 || c.Cols != 3 {
		t.Fatalf("shape %dx%d", c.Rows, c.Cols)
	}
	if c.At(1, 0) != 2 || c.At(1, 2) != 6 {
		t.Fatalf("data %v", c.Data)
	}
}

func TestGatherRows(t *testing.T) {
	src := FromSlice(3, 2, []float64{1, 2, 3, 4, 5, 6})
	g := GatherRows(src, []int{2, 0, 2})
	if g.Rows != 3 || g.At(0, 1) != 6 || g.At(1, 0) != 1 || g.At(2, 0) != 5 {
		t.Fatalf("gather %v", g.Data)
	}
}

func TestMeanRows(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	mean := m.MeanRows()
	if !almostEq(mean.At(0, 0), 2) || !almostEq(mean.At(0, 1), 3) {
		t.Fatalf("mean %v", mean.Data)
	}
	empty := New(0, 2).MeanRows()
	if empty.At(0, 0) != 0 {
		t.Fatal("empty mean")
	}
}

func TestInits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New(50, 50)
	m.XavierInit(rng)
	limit := math.Sqrt(6.0 / 100)
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("xavier out of range: %f", v)
		}
	}
	g := New(100, 100)
	g.GaussianInit(rng, 0.5)
	var sum, sumSq float64
	for _, v := range g.Data {
		sum += v
		sumSq += float64(v * v)
	}
	n := float64(len(g.Data))
	if math.Abs(sum/n) > 0.05 {
		t.Fatalf("gaussian mean %f", sum/n)
	}
	std := math.Sqrt(sumSq/n - float64((sum/n)*(sum/n)))
	if std < 0.4 || std > 0.6 {
		t.Fatalf("gaussian std %f", std)
	}
}

// Property: (AB)ᵀ = BᵀAᵀ.
func TestQuickTransposeProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a, b := New(r, k), New(k, c)
		a.GaussianInit(rng, 1)
		b.GaussianInit(rng, 1)
		left := MatMul(a, b).Transpose()
		right := MatMul(b.Transpose(), a.Transpose())
		for i := range left.Data {
			if math.Abs(left.Data[i]-right.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: matmul distributes over addition: A(B+C) = AB + AC.
func TestQuickDistributive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4)
		a := New(r, k)
		b, cm := New(k, c), New(k, c)
		a.GaussianInit(rng, 1)
		b.GaussianInit(rng, 1)
		cm.GaussianInit(rng, 1)
		bc := b.Clone()
		bc.AddInPlace(cm)
		left := MatMul(a, bc)
		right := MatMul(a, b)
		right.AddInPlace(MatMul(a, cm))
		for i := range left.Data {
			if math.Abs(left.Data[i]-right.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
