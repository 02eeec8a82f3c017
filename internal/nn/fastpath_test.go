package nn

import (
	"math"
	"math/rand"
	"testing"

	"mpgraph/internal/tensor"
)

// randInput builds a deterministic dense input.
func randInput(rows, cols int, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.Zeros(rows, cols)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

// wantClose asserts the fast-path output matches the autograd path within
// float reassociation tolerance (the fused kernels change summation order).
func wantClose(t *testing.T, name string, slow, fast *tensor.Tensor) {
	t.Helper()
	if slow.Rows != fast.Rows || slow.Cols != fast.Cols {
		t.Fatalf("%s: shape (%d,%d) vs (%d,%d)", name, slow.Rows, slow.Cols, fast.Rows, fast.Cols)
	}
	for i := range slow.Data {
		if math.Abs(slow.Data[i]-fast.Data[i]) > 1e-9 {
			t.Fatalf("%s: data[%d] = %g (slow) vs %g (fast)", name, i, slow.Data[i], fast.Data[i])
		}
	}
}

// stackForward runs an autograd forward on each of the `blocks` row blocks of
// x and stacks the results — the reference a batched forward must match.
func stackForward(x *tensor.Tensor, blocks int, f func(*tensor.Tensor) *tensor.Tensor) *tensor.Tensor {
	t := x.Rows / blocks
	outs := make([]*tensor.Tensor, blocks)
	for b := range outs {
		outs[b] = f(tensor.SliceRows(x, b*t, (b+1)*t))
	}
	return tensor.ConcatRows(outs...)
}

// Every layer's arena forward over a stacked batch must reproduce the
// autograd Forward of each session block: the fast path is a pure
// execution-strategy change.
func TestForwardCtxMatchesForward(t *testing.T) {
	ctx := tensor.NewCtx()
	x := randInput(9, 16, 7)
	const blocks = 3

	lin := NewLinear(16, 12, rand.New(rand.NewSource(1)))
	norm := NewLayerNorm(16)
	att := NewSelfAttention(16, 8, rand.New(rand.NewSource(2)))
	mhsa := NewMultiHeadSelfAttention(16, 4, rand.New(rand.NewSource(3)))
	ffn := NewFFN(16, 32, rand.New(rand.NewSource(4)))
	tr := NewTransformerLayer(16, 4, rand.New(rand.NewSource(5)))
	mlp := NewMLP([]int{16, 24, 6}, rand.New(rand.NewSource(6)))
	lstm := NewLSTM(16, 12, rand.New(rand.NewSource(8)))
	layers := []struct {
		name string
		slow func(*tensor.Tensor) *tensor.Tensor
		fast func(*tensor.Ctx) *tensor.Tensor
	}{
		{"linear", lin.Forward, func(c *tensor.Ctx) *tensor.Tensor { return lin.ForwardCtx(c, x) }},
		{"linear-batch", lin.Forward, func(c *tensor.Ctx) *tensor.Tensor { return lin.ForwardBatchCtx(c, x) }},
		{"layernorm", norm.Forward, func(c *tensor.Ctx) *tensor.Tensor { return norm.ForwardCtx(c, x) }},
		{"selfattention", att.Forward, func(c *tensor.Ctx) *tensor.Tensor { return att.ForwardBatchCtx(c, x, blocks) }},
		{"mhsa", mhsa.Forward, func(c *tensor.Ctx) *tensor.Tensor { return mhsa.ForwardBatchCtx(c, x, blocks) }},
		{"ffn", ffn.Forward, func(c *tensor.Ctx) *tensor.Tensor { return ffn.ForwardCtx(c, x) }},
		{"ffn-batch", ffn.Forward, func(c *tensor.Ctx) *tensor.Tensor { return ffn.ForwardBatchCtx(c, x) }},
		{"transformer", tr.Forward, func(c *tensor.Ctx) *tensor.Tensor { return tr.ForwardBatchCtx(c, x, blocks) }},
		{"mlp", mlp.Forward, func(c *tensor.Ctx) *tensor.Tensor { return mlp.ForwardCtx(c, x) }},
		{"mlp-batch", mlp.Forward, func(c *tensor.Ctx) *tensor.Tensor { return mlp.ForwardBatchCtx(c, x) }},
		{"lstm", lstm.Forward, func(c *tensor.Ctx) *tensor.Tensor { return lstm.ForwardBatchCtx(c, x, blocks) }},
	}
	for _, l := range layers {
		wantClose(t, l.name, stackForward(x, blocks, l.slow), l.fast(ctx))
		ctx.Reset()
	}
}

// Embedding and MMAF take non-tensor inputs; checked separately.
func TestForwardCtxMatchesForwardComposite(t *testing.T) {
	ctx := tensor.NewCtx()

	e := NewEmbedding(10, 8, rand.New(rand.NewSource(9)))
	ids := []int{1, 4, 9, 0, 4}
	wantClose(t, "embedding", e.ForwardCtx(nil, ids), e.ForwardCtx(ctx, ids))
	ctx.Reset()

	m := NewMMAF(16, 12, rand.New(rand.NewSource(10)))
	a, b := randInput(9, 16, 11), randInput(9, 16, 12)
	wantClose(t, "mmaf", m.Forward(a, b), m.ForwardBatchCtx2(ctx, a, b, 1))
	ctx.Reset()
	// Three stacked sessions of three rows per modality: block i fuses a's
	// and b's block i.
	var slow []*tensor.Tensor
	for blk := 0; blk < 3; blk++ {
		slow = append(slow, m.Forward(tensor.SliceRows(a, 3*blk, 3*blk+3), tensor.SliceRows(b, 3*blk, 3*blk+3)))
	}
	wantClose(t, "mmaf-batch", tensor.ConcatRows(slow...), m.ForwardBatchCtx2(ctx, a, b, 3))
	ctx.Reset()

	// Repeated forwards after Reset must keep producing the same values
	// (arena reuse must not leak state between inferences).
	l := NewLinear(16, 12, rand.New(rand.NewSource(13)))
	x := randInput(9, 16, 14)
	first := l.ForwardCtx(ctx, x)
	snapshot := append([]float64(nil), first.Data...)
	ctx.Reset()
	second := l.ForwardCtx(ctx, x)
	for i := range snapshot {
		if math.Abs(snapshot[i]-second.Data[i]) > 0 {
			t.Fatalf("arena reuse changed output at %d: %g vs %g", i, snapshot[i], second.Data[i])
		}
	}
}
