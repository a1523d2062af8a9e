package nn

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestTensorBasics(t *testing.T) {
	a := NewTensor(2, 3)
	if a.Size() != 6 || a.Dim(0) != 2 || a.Dim(1) != 3 {
		t.Fatalf("shape bookkeeping wrong: %v", a.Shape)
	}
	a.Fill(2)
	b := a.Clone()
	b.Data[0] = 9
	if a.Data[0] != 2 {
		t.Error("Clone aliases storage")
	}
	r, err := a.Reshape(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Dim(0) != 3 {
		t.Error("reshape failed")
	}
	if _, err := a.Reshape(4, 4); err == nil {
		t.Error("bad reshape accepted")
	}
	if _, err := FromSlice([]float64{1, 2, 3}, 2, 2); err == nil {
		t.Error("FromSlice with wrong volume accepted")
	}
}

func TestMatMulKnown(t *testing.T) {
	a, _ := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b, _ := FromSlice([]float64{5, 6, 7, 8}, 2, 2)
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{19, 22, 43, 50}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("c = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulTransposedAgree(t *testing.T) {
	r := rng(3)
	a := NewTensor(7, 5)
	b := NewTensor(5, 4)
	a.RandNormal(r, 1)
	b.RandNormal(r, 1)
	ab, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Aᵀ stored as [5,7] then MatMulTransA should reproduce A×B.
	at := NewTensor(5, 7)
	for i := 0; i < 7; i++ {
		for j := 0; j < 5; j++ {
			at.Data[j*7+i] = a.Data[i*5+j]
		}
	}
	ab2, err := MatMulTransA(at, b)
	if err != nil {
		t.Fatal(err)
	}
	// Bᵀ stored as [4,5] then MatMulTransB should reproduce A×B.
	bt := NewTensor(4, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 4; j++ {
			bt.Data[j*5+i] = b.Data[i*4+j]
		}
	}
	ab3, err := MatMulTransB(a, bt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ab.Data {
		if math.Abs(ab.Data[i]-ab2.Data[i]) > 1e-10 || math.Abs(ab.Data[i]-ab3.Data[i]) > 1e-10 {
			t.Fatalf("transposed variants disagree at %d", i)
		}
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	r := rng(4)
	a := NewTensor(64, 48)
	b := NewTensor(48, 32)
	a.RandNormal(r, 1)
	b.RandNormal(r, 1)
	prev := SetMaxWorkers(1)
	serial, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	SetMaxWorkers(8)
	parallel, err := MatMul(a, b)
	SetMaxWorkers(prev)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Data {
		if serial.Data[i] != parallel.Data[i] {
			t.Fatalf("parallel result differs at %d", i)
		}
	}
}

func TestMatMulShapeErrors(t *testing.T) {
	a := NewTensor(2, 3)
	b := NewTensor(4, 2)
	if _, err := MatMul(a, b); err == nil {
		t.Error("inner-dim mismatch accepted")
	}
	c := NewTensor(2)
	if _, err := MatMul(c, b); err == nil {
		t.Error("1-D operand accepted")
	}
}

// gradCheck compares analytic input gradients of a layer against central
// finite differences on a random scalar objective.
func gradCheck(t *testing.T, layer Layer, x *Tensor, tol float64) {
	t.Helper()
	r := rng(99)
	// Random linear objective: loss = Σ c_i y_i.
	y, err := layer.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	c := NewTensor(y.Shape...)
	c.RandNormal(r, 1)
	// Analytic gradient.
	for _, p := range layer.Params() {
		p.Grad.Zero()
	}
	dx, err := layer.Backward(c)
	if err != nil {
		t.Fatal(err)
	}
	// Numeric gradient w.r.t. a sample of input entries.
	eps := 1e-5
	checkIdx := []int{0, len(x.Data) / 3, len(x.Data) - 1}
	obj := func() float64 {
		y, err := layer.Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		var s float64
		for i := range y.Data {
			s += c.Data[i] * y.Data[i]
		}
		return s
	}
	for _, i := range checkIdx {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		hi := obj()
		x.Data[i] = orig - eps
		lo := obj()
		x.Data[i] = orig
		num := (hi - lo) / (2 * eps)
		if math.Abs(num-dx.Data[i]) > tol*(1+math.Abs(num)) {
			t.Errorf("input grad [%d]: analytic %g vs numeric %g", i, dx.Data[i], num)
		}
	}
	// Numeric gradient w.r.t. a sample of parameter entries.
	obj() // restore caches for current x
	for _, p := range layer.Params() {
		p.Grad.Zero()
	}
	if _, err := layer.Backward(c); err != nil {
		t.Fatal(err)
	}
	for _, p := range layer.Params() {
		i := len(p.W.Data) / 2
		orig := p.W.Data[i]
		p.W.Data[i] = orig + eps
		hi := obj()
		p.W.Data[i] = orig - eps
		lo := obj()
		p.W.Data[i] = orig
		num := (hi - lo) / (2 * eps)
		if math.Abs(num-p.Grad.Data[i]) > tol*(1+math.Abs(num)) {
			t.Errorf("param %s grad [%d]: analytic %g vs numeric %g", p.Name, i, p.Grad.Data[i], num)
		}
	}
}

func TestDenseGradCheck(t *testing.T) {
	r := rng(1)
	d := NewDense(5, 3, r)
	x := NewTensor(4, 5)
	x.RandNormal(r, 1)
	gradCheck(t, d, x, 1e-5)
}

func TestConv2DGradCheck(t *testing.T) {
	r := rng(2)
	c, err := NewConv2D(2, 3, 3, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	x := NewTensor(2, 2, 9, 9)
	x.RandNormal(r, 1)
	gradCheck(t, c, x, 1e-4)
}

func TestConv2DNaiveMatchesIm2col(t *testing.T) {
	r := rng(5)
	fast, err := NewConv2D(1, 2, 3, 1, rng(5))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := NewConv2D(1, 2, 3, 1, rng(5))
	if err != nil {
		t.Fatal(err)
	}
	slow.Naive = true
	x := NewTensor(2, 1, 8, 8)
	x.RandNormal(r, 1)
	yf, err := fast.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	ys, err := slow.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if !yf.SameShape(ys) {
		t.Fatalf("shapes differ: %v vs %v", yf.Shape, ys.Shape)
	}
	for i := range yf.Data {
		if math.Abs(yf.Data[i]-ys.Data[i]) > 1e-10 {
			t.Fatalf("outputs differ at %d: %g vs %g", i, yf.Data[i], ys.Data[i])
		}
	}
}

func TestConv2DRejectsTooSmall(t *testing.T) {
	c, err := NewConv2D(1, 1, 5, 1, rng(1))
	if err != nil {
		t.Fatal(err)
	}
	x := NewTensor(1, 1, 3, 3)
	if _, err := c.Forward(x, false); err == nil {
		t.Error("undersized input accepted")
	}
}

func TestConv3DGradCheck(t *testing.T) {
	r := rng(7)
	c, err := NewConv3D(1, 2, 2, 3, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	x := NewTensor(1, 1, 3, 7, 7)
	x.RandNormal(r, 1)
	gradCheck(t, c, x, 1e-4)
}

func TestMaxPoolGradCheck(t *testing.T) {
	r := rng(8)
	p, err := NewMaxPool2D(2)
	if err != nil {
		t.Fatal(err)
	}
	x := NewTensor(2, 1, 6, 6)
	x.RandNormal(r, 1)
	gradCheck(t, p, x, 1e-5)
}

func TestLSTMGradCheck(t *testing.T) {
	r := rng(9)
	l, err := NewLSTM(4, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	x := NewTensor(2, 5, 4)
	x.RandNormal(r, 1)
	gradCheck(t, l, x, 1e-4)
}

func TestReLUForwardBackward(t *testing.T) {
	var relu ReLU
	x, _ := FromSlice([]float64{-1, 2, -3, 4}, 1, 4)
	y, err := relu.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 2, 0, 4}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("relu = %v", y.Data)
		}
	}
	g, _ := FromSlice([]float64{1, 1, 1, 1}, 1, 4)
	dx, err := relu.Backward(g)
	if err != nil {
		t.Fatal(err)
	}
	wantG := []float64{0, 1, 0, 1}
	for i := range wantG {
		if dx.Data[i] != wantG[i] {
			t.Fatalf("relu grad = %v", dx.Data)
		}
	}
}

func TestTanhBoundsOutput(t *testing.T) {
	var th Tanh
	x := NewTensor(1, 3)
	x.Data = []float64{-100, 0, 100}
	y, err := th.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	if y.Data[0] < -1 || y.Data[2] > 1 || math.Abs(y.Data[1]) > 1e-12 {
		t.Errorf("tanh output %v", y.Data)
	}
}

func TestDropoutTrainVsEval(t *testing.T) {
	d, err := NewDropout(0.5, rng(10))
	if err != nil {
		t.Fatal(err)
	}
	x := NewTensor(1, 1000)
	x.Fill(1)
	yt, err := d.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for _, v := range yt.Data {
		if v == 0 {
			zeros++
		}
	}
	if zeros < 300 || zeros > 700 {
		t.Errorf("dropout zeroed %d of 1000 at rate 0.5", zeros)
	}
	ye, err := d.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ye.Data {
		if v != 1 {
			t.Fatal("dropout not identity at eval time")
		}
	}
	if _, err := NewDropout(1.0, rng(1)); err == nil {
		t.Error("rate 1.0 accepted")
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	var f Flatten
	x := NewTensor(2, 3, 4)
	y, err := f.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	if y.Dim(0) != 2 || y.Dim(1) != 12 {
		t.Fatalf("flatten shape %v", y.Shape)
	}
	back, err := f.Backward(y)
	if err != nil {
		t.Fatal(err)
	}
	if back.Dim(2) != 4 {
		t.Fatalf("unflatten shape %v", back.Shape)
	}
}

func TestMSELossAndGrad(t *testing.T) {
	var mse MSE
	p, _ := FromSlice([]float64{1, 2}, 1, 2)
	y, _ := FromSlice([]float64{0, 0}, 1, 2)
	l, g, err := mse.Loss(p, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l-2.5) > 1e-12 {
		t.Errorf("mse = %g, want 2.5", l)
	}
	if math.Abs(g.Data[0]-1) > 1e-12 || math.Abs(g.Data[1]-2) > 1e-12 {
		t.Errorf("grad = %v", g.Data)
	}
}

func TestSoftmaxCEPerfectPrediction(t *testing.T) {
	var ce SoftmaxCrossEntropy
	p, _ := FromSlice([]float64{100, 0, 0}, 1, 3)
	y, _ := FromSlice([]float64{1, 0, 0}, 1, 3)
	l, g, err := ce.Loss(p, y)
	if err != nil {
		t.Fatal(err)
	}
	if l > 1e-6 {
		t.Errorf("loss on confident correct prediction = %g", l)
	}
	if math.Abs(g.Data[0]) > 1e-6 {
		t.Errorf("grad should be ~0, got %v", g.Data)
	}
}

func TestSplitCategoricalGradLayout(t *testing.T) {
	s := SplitCategorical{AngleBins: 3, ThrottleBins: 2}
	p := NewTensor(2, 5)
	y := NewTensor(2, 5)
	y.Data[0] = 1 // angle bin 0 for row 0
	y.Data[3] = 1 // throttle bin 0 for row 0
	y.Data[5+1] = 1
	y.Data[5+4] = 1
	l, g, err := s.Loss(p, y)
	if err != nil {
		t.Fatal(err)
	}
	if l <= 0 {
		t.Error("uniform logits should have positive loss")
	}
	if !g.SameShape(p) {
		t.Errorf("grad shape %v", g.Shape)
	}
}

func TestBinUnbinRoundTripProperty(t *testing.T) {
	f := func(raw uint8) bool {
		v := float64(raw)/127.5 - 1 // [-1, 1]
		i := Bin(v, -1, 1, 15)
		back := Unbin(i, -1, 1, 15)
		return i >= 0 && i < 15 && math.Abs(back-v) <= 2.0/15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestOneHotSumsToOne(t *testing.T) {
	oh := OneHot(0.3, -1, 1, 15)
	var s float64
	for _, v := range oh {
		s += v
	}
	if s != 1 {
		t.Errorf("one-hot sums to %g", s)
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax([]float64{1, 5, 2}) != 1 {
		t.Error("argmax wrong")
	}
}

func TestSGDReducesLossOnLinearProblem(t *testing.T) {
	// y = 3x - 1; a single dense neuron must fit it.
	r := rng(11)
	n := 64
	x := NewTensor(n, 1)
	y := NewTensor(n, 1)
	for i := 0; i < n; i++ {
		v := r.Float64()*2 - 1
		x.Data[i] = v
		y.Data[i] = 3*v - 1
	}
	model := NewSequential(NewDense(1, 1, r))
	opt, err := NewSGD(0.1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TrainConfig{Epochs: 60, BatchSize: 16, ValFrac: 0, Seed: 2}
	h, err := Train(model, Dataset{X: x, Y: y}, MSE{}, opt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h.FinalTrainLoss() > 0.01 {
		t.Errorf("final loss %g, want < 0.01", h.FinalTrainLoss())
	}
}

func TestAdamSolvesXOR(t *testing.T) {
	r := rng(12)
	x, _ := FromSlice([]float64{0, 0, 0, 1, 1, 0, 1, 1}, 4, 2)
	y, _ := FromSlice([]float64{0, 1, 1, 0}, 4, 1)
	model := NewSequential(NewDense(2, 8, r), &ReLU{}, NewDense(8, 1, r))
	opt, err := NewAdam(0.05)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TrainConfig{Epochs: 300, BatchSize: 4, ValFrac: 0, Seed: 3}
	h, err := Train(model, Dataset{X: x, Y: y}, MSE{}, opt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h.FinalTrainLoss() > 0.02 {
		t.Errorf("XOR loss %g, want < 0.02", h.FinalTrainLoss())
	}
}

func TestEarlyStopping(t *testing.T) {
	r := rng(13)
	// Pure-noise labels: validation loss cannot improve for long.
	n := 80
	x := NewTensor(n, 4)
	y := NewTensor(n, 1)
	x.RandNormal(r, 1)
	y.RandNormal(r, 1)
	model := NewSequential(NewDense(4, 4, r), &ReLU{}, NewDense(4, 1, r))
	opt, _ := NewAdam(0.01)
	cfg := TrainConfig{Epochs: 200, BatchSize: 16, ValFrac: 0.25, Seed: 5, Patience: 3}
	h, err := Train(model, Dataset{X: x, Y: y}, MSE{}, opt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Stopped {
		t.Error("early stopping never fired on noise")
	}
	if len(h.Epochs) >= 200 {
		t.Error("ran all epochs despite patience")
	}
}

func TestTrainValidation(t *testing.T) {
	r := rng(14)
	model := NewSequential(NewDense(2, 1, r))
	opt, _ := NewAdam(0.01)
	x := NewTensor(4, 2)
	y := NewTensor(4, 1)
	if _, err := Train(model, Dataset{X: x, Y: y}, MSE{}, opt, TrainConfig{Epochs: 0, BatchSize: 4}); err == nil {
		t.Error("zero epochs accepted")
	}
	if _, err := Train(model, Dataset{X: x}, MSE{}, opt, TrainConfig{Epochs: 1, BatchSize: 4}); err == nil {
		t.Error("missing Y accepted")
	}
	bad := NewTensor(3, 1)
	if _, err := Train(model, Dataset{X: x, Y: bad}, MSE{}, opt, TrainConfig{Epochs: 1, BatchSize: 4}); err == nil {
		t.Error("row mismatch accepted")
	}
}

func TestTrainDeterministic(t *testing.T) {
	make1 := func() float64 {
		r := rng(21)
		n := 32
		x := NewTensor(n, 3)
		y := NewTensor(n, 1)
		x.RandNormal(r, 1)
		for i := 0; i < n; i++ {
			y.Data[i] = x.Data[i*3] - 0.5*x.Data[i*3+1]
		}
		model := NewSequential(NewDense(3, 6, r), &ReLU{}, NewDense(6, 1, r))
		opt, _ := NewAdam(0.01)
		h, err := Train(model, Dataset{X: x, Y: y}, MSE{}, opt,
			TrainConfig{Epochs: 5, BatchSize: 8, ValFrac: 0.25, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return h.FinalTrainLoss()
	}
	if a, b := make1(), make1(); a != b {
		t.Errorf("training not deterministic: %g vs %g", a, b)
	}
}

func TestGradientClipping(t *testing.T) {
	p := newParam("w", 2)
	p.Grad.Data[0] = 100
	p.Grad.Data[1] = -50
	pre := ClipGradients([]*Param{p}, 1)
	if pre != 100 {
		t.Errorf("pre-clip max %g", pre)
	}
	if math.Abs(p.Grad.Data[0]-1) > 1e-12 || math.Abs(p.Grad.Data[1]+0.5) > 1e-12 {
		t.Errorf("clipped grads %v", p.Grad.Data)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	r := rng(15)
	m1 := NewSequential(NewDense(3, 4, r), &ReLU{}, NewDense(4, 2, r))
	var buf bytes.Buffer
	meta := map[string]string{"arch": "test", "k": "v"}
	if err := SaveParams(&buf, m1.Params(), meta); err != nil {
		t.Fatal(err)
	}
	m2 := NewSequential(NewDense(3, 4, rng(999)), &ReLU{}, NewDense(4, 2, rng(999)))
	got, err := LoadParams(bytes.NewReader(buf.Bytes()), m2.Params())
	if err != nil {
		t.Fatal(err)
	}
	if got["arch"] != "test" {
		t.Errorf("meta lost: %v", got)
	}
	x := NewTensor(2, 3)
	x.RandNormal(rng(16), 1)
	y1, _ := m1.Forward(x, false)
	y2, _ := m2.Forward(x, false)
	for i := range y1.Data {
		if y1.Data[i] != y2.Data[i] {
			t.Fatalf("loaded model differs at %d", i)
		}
	}
}

func TestLoadParamsShapeMismatch(t *testing.T) {
	r := rng(17)
	m1 := NewSequential(NewDense(3, 4, r))
	var buf bytes.Buffer
	if err := SaveParams(&buf, m1.Params(), nil); err != nil {
		t.Fatal(err)
	}
	m2 := NewSequential(NewDense(3, 5, r))
	if _, err := LoadParams(bytes.NewReader(buf.Bytes()), m2.Params()); err == nil {
		t.Error("shape mismatch accepted")
	}
	m3 := NewSequential(NewDense(3, 4, r), NewDense(4, 4, r))
	if _, err := LoadParams(bytes.NewReader(buf.Bytes()), m3.Params()); err == nil {
		t.Error("count mismatch accepted")
	}
}

func TestLoadMeta(t *testing.T) {
	r := rng(18)
	m := NewSequential(NewDense(2, 2, r))
	var buf bytes.Buffer
	if err := SaveParams(&buf, m.Params(), map[string]string{"pilot": "linear"}); err != nil {
		t.Fatal(err)
	}
	meta, err := LoadMeta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if meta["pilot"] != "linear" {
		t.Errorf("meta = %v", meta)
	}
}

func TestTimeDistributedSharesWeights(t *testing.T) {
	r := rng(19)
	inner := NewSequential(NewDense(4, 3, r))
	td := NewTimeDistributed(inner, 4)
	x := NewTensor(2, 5, 4)
	x.RandNormal(r, 1)
	y, err := td.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if y.Dim(0) != 2 || y.Dim(1) != 5 || y.Dim(2) != 3 {
		t.Fatalf("td output shape %v", y.Shape)
	}
	// Same step input must give the same step output (weight sharing).
	x2 := NewTensor(1, 2, 4)
	for i := 0; i < 4; i++ {
		x2.Data[i] = float64(i)
		x2.Data[4+i] = float64(i)
	}
	y2, err := td.Forward(x2, false)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		if math.Abs(y2.Data[j]-y2.Data[3+j]) > 1e-12 {
			t.Error("identical timesteps produced different outputs")
		}
	}
}

func TestRNNStackTrains(t *testing.T) {
	// Sequence task: output the mean of the inputs' first feature.
	r := rng(20)
	n, tt, d := 48, 4, 3
	x := NewTensor(n, tt, d)
	y := NewTensor(n, 1)
	x.RandNormal(r, 1)
	for i := 0; i < n; i++ {
		var s float64
		for step := 0; step < tt; step++ {
			s += x.Data[(i*tt+step)*d]
		}
		y.Data[i] = s / float64(tt)
	}
	lstm, err := NewLSTM(d, 8, r)
	if err != nil {
		t.Fatal(err)
	}
	model := NewSequential(lstm, NewDense(8, 1, r))
	opt, _ := NewAdam(0.02)
	h, err := Train(model, Dataset{X: x, Y: y}, MSE{}, opt,
		TrainConfig{Epochs: 80, BatchSize: 16, ValFrac: 0, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if h.FinalTrainLoss() > 0.05 {
		t.Errorf("LSTM failed to learn mean task: loss %g", h.FinalTrainLoss())
	}
}

func TestParamCount(t *testing.T) {
	r := rng(22)
	m := NewSequential(NewDense(3, 4, r)) // 3*4 + 4 = 16
	if got := ParamCount(m); got != 16 {
		t.Errorf("param count %d, want 16", got)
	}
}

func TestEvaluateMatchesTrainLossOnFixedModel(t *testing.T) {
	r := rng(23)
	m := NewSequential(NewDense(2, 1, r))
	x := NewTensor(10, 2)
	y := NewTensor(10, 1)
	x.RandNormal(r, 1)
	l1, err := Evaluate(m, Dataset{X: x, Y: y}, MSE{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := Evaluate(m, Dataset{X: x, Y: y}, MSE{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l1-l2) > 0.3*math.Abs(l1) {
		t.Errorf("batch size changed eval loss too much: %g vs %g", l1, l2)
	}
}

// rowRecorder is a parameter-free model over [N, 1] inputs that records
// the input values of its training and inference forwards.
type rowRecorder struct{ train, eval []float64 }

func (r *rowRecorder) Forward(x *Tensor, train bool) (*Tensor, error) {
	if train {
		r.train = append(r.train, x.Data...)
	} else {
		r.eval = append(r.eval, x.Data...)
	}
	return NewTensor(x.Shape[0], 1), nil
}

func (r *rowRecorder) Backward(*Tensor) error { return nil }
func (r *rowRecorder) Params() []*Param       { return nil }

// TestTrainSplitRows pins the rows Train trains and validates on: a
// seeded permutation (Seed) holds out its first ValFrac for validation,
// walked in permutation order, and each epoch visits the rest in a
// second seeded permutation (Seed+1) of that remainder. The two parts
// are disjoint and together cover every row.
func TestTrainSplitRows(t *testing.T) {
	const n, seed = 10, 42
	x := NewTensor(n, 1)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	rec := &rowRecorder{}
	opt, err := NewSGD(0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TrainConfig{Epochs: 1, BatchSize: 4, ValFrac: 0.3, Seed: seed}
	if _, err := Train(rec, Dataset{X: x, Y: NewTensor(n, 1)}, MSE{}, opt, cfg); err != nil {
		t.Fatal(err)
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	var wantVal, wantTrain []float64
	for _, i := range perm[:3] {
		wantVal = append(wantVal, float64(i))
	}
	for _, j := range rand.New(rand.NewSource(seed + 1)).Perm(n - 3) {
		wantTrain = append(wantTrain, float64(perm[3+j]))
	}
	if !slices.Equal(rec.eval, wantVal) {
		t.Errorf("validation rows %v, want %v", rec.eval, wantVal)
	}
	if !slices.Equal(rec.train, wantTrain) {
		t.Errorf("training rows %v, want %v", rec.train, wantTrain)
	}
	seen := map[float64]int{}
	for _, v := range append(slices.Clone(rec.train), rec.eval...) {
		seen[v]++
	}
	for i := 0; i < n; i++ {
		if seen[float64(i)] != 1 {
			t.Fatalf("example %d appears %d times", i, seen[float64(i)])
		}
	}
}

func TestLRDecayApplied(t *testing.T) {
	r := rng(30)
	model := NewSequential(NewDense(2, 1, r))
	opt, err := NewAdam(0.1)
	if err != nil {
		t.Fatal(err)
	}
	x := NewTensor(16, 2)
	y := NewTensor(16, 1)
	x.RandNormal(r, 1)
	cfg := TrainConfig{Epochs: 5, BatchSize: 8, ValFrac: 0, Seed: 1, LRDecay: 0.5}
	if _, err := Train(model, Dataset{X: x, Y: y}, MSE{}, opt, cfg); err != nil {
		t.Fatal(err)
	}
	// 0.1 * 0.5^5 = 0.003125
	want := 0.1 * math.Pow(0.5, 5)
	if math.Abs(opt.LR-want) > 1e-12 {
		t.Errorf("LR after decay %g, want %g", opt.LR, want)
	}
}

func TestScaleLRIgnoresNonPositive(t *testing.T) {
	sgd, err := NewSGD(0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	sgd.ScaleLR(-1)
	if sgd.LR != 0.1 {
		t.Errorf("negative factor applied: %g", sgd.LR)
	}
	sgd.ScaleLR(0.5)
	if sgd.LR != 0.05 {
		t.Errorf("LR %g", sgd.LR)
	}
}
