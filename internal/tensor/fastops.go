package tensor

import (
	"math"

	"mpgraph/internal/invariant"
)

// Graph-free fast-path ops. Every method on *Ctx mirrors one package op (or
// a fused composition of several) and dispatches on the receiver: a nil Ctx
// runs the exact autograd op so the training path is untouched; a non-nil
// Ctx runs an arena-backed kernel that builds no graph and allocates
// nothing once the arena has warmed up.
//
// Aliasing contract: fast-path results live in the arena until the next
// Reset, and in-place ops (SoftmaxRows, SigmoidInPlace) may overwrite their
// input. Callers on the hot path treat op inputs as consumed.

// Zeros returns a zero rows x cols tensor (arena-backed when c is non-nil).
//
//mpgraph:noalloc
func (c *Ctx) Zeros(rows, cols int) *Tensor {
	if c == nil {
		return Zeros(rows, cols)
	}
	return c.zeros(rows, cols)
}

// Add returns a+b elementwise.
//
//mpgraph:noalloc
func (c *Ctx) Add(a, b *Tensor) *Tensor {
	if c == nil {
		return Add(a, b)
	}
	checkSameShape("add", a, b)
	out := c.uninit(a.Rows, a.Cols)
	for i, av := range a.Data {
		out.Data[i] = av + b.Data[i]
	}
	return out
}

// softmaxInPlace applies a numerically-stable softmax to one row.
//
//mpgraph:noalloc
func softmaxInPlace(row []float64) {
	maxV := math.Inf(-1)
	for _, v := range row {
		if v > maxV {
			maxV = v
		}
	}
	sum := 0.0
	for i, v := range row {
		e := math.Exp(v - maxV)
		row[i] = e
		sum += e
	}
	for i := range row {
		row[i] /= sum
	}
}

// SigmoidInPlace applies the logistic function. The fast path runs in place
// and returns its input; the nil path returns a fresh graph tensor.
//
//mpgraph:noalloc
func (c *Ctx) SigmoidInPlace(a *Tensor) *Tensor {
	if c == nil {
		return Sigmoid(a)
	}
	applyAct(a.Data, ActSigmoid)
	return a
}

// ConcatCols stacks tensors horizontally (same Rows).
//
//mpgraph:noalloc
func (c *Ctx) ConcatCols(ts ...*Tensor) *Tensor {
	if c == nil {
		return ConcatCols(ts...)
	}
	if len(ts) == 0 {
		invariant.Fail("tensor: ConcatCols of nothing")
	}
	rows := ts[0].Rows
	cols := 0
	for _, t := range ts {
		if t.Rows != rows {
			invariant.Fail("tensor: ConcatCols row mismatch")
		}
		cols += t.Cols
	}
	out := c.uninit(rows, cols)
	colOff := 0
	for _, t := range ts {
		for r := 0; r < rows; r++ {
			copy(out.Data[r*cols+colOff:r*cols+colOff+t.Cols], t.Data[r*t.Cols:(r+1)*t.Cols])
		}
		colOff += t.Cols
	}
	return out
}

// ConcatCols2 is ConcatCols for exactly two tensors (see ConcatRows2).
//
//mpgraph:noalloc
func (c *Ctx) ConcatCols2(a, b *Tensor) *Tensor {
	if c == nil {
		return ConcatCols(a, b)
	}
	if a.Rows != b.Rows {
		invariant.Fail("tensor: ConcatCols row mismatch")
	}
	rows, cols := a.Rows, a.Cols+b.Cols
	out := c.uninit(rows, cols)
	for r := 0; r < rows; r++ {
		copy(out.Data[r*cols:], a.Data[r*a.Cols:(r+1)*a.Cols])
		copy(out.Data[r*cols+a.Cols:], b.Data[r*b.Cols:(r+1)*b.Cols])
	}
	return out
}

// EmbeddingLookup gathers rows of table by ids.
//
//mpgraph:noalloc
func (c *Ctx) EmbeddingLookup(table *Tensor, ids []int) *Tensor {
	if c == nil {
		return EmbeddingLookup(table, ids)
	}
	for _, id := range ids {
		if id < 0 || id >= table.Rows {
			invariant.Failf("tensor: embedding id %d out of [0,%d)", id, table.Rows)
		}
	}
	out := c.uninit(len(ids), table.Cols)
	for i, id := range ids {
		copy(out.Data[i*table.Cols:(i+1)*table.Cols], table.Data[id*table.Cols:(id+1)*table.Cols])
	}
	return out
}

// LinearAct returns act(x@w + bias) as one fused kernel (bias may be nil).
//
//mpgraph:noalloc
func (c *Ctx) LinearAct(x, w, bias *Tensor, act Act) *Tensor {
	if c == nil {
		out := MatMul(x, w)
		if bias != nil {
			out = AddBias(out, bias)
		}
		return applyActGraph(out, act)
	}
	if x.Cols != w.Rows {
		invariant.Failf("tensor: linear %dx%d @ %dx%d", x.Rows, x.Cols, w.Rows, w.Cols)
	}
	out := c.uninit(x.Rows, w.Cols)
	var bd []float64
	if bias != nil {
		if bias.Rows != 1 || bias.Cols != w.Cols {
			invariant.Failf("tensor: linear bias %dx%d for width %d", bias.Rows, bias.Cols, w.Cols)
		}
		bd = bias.Data
	}
	gemmBiasAct(out.Data, x.Data, w.Data, bd, x.Rows, x.Cols, w.Cols, act)
	return out
}

// LayerNorm normalises each row of x and applies gain and bias in a single
// fused pass (the nn.LayerNorm composition).
//
//mpgraph:noalloc
func (c *Ctx) LayerNorm(x, gain, bias *Tensor, eps float64) *Tensor {
	if c == nil {
		return AddBias(MulBias(NormalizeRows(x, eps), gain), bias)
	}
	if gain.Cols != x.Cols || bias.Cols != x.Cols {
		invariant.Failf("tensor: layernorm gain/bias width for %dx%d", x.Rows, x.Cols)
	}
	out := c.uninit(x.Rows, x.Cols)
	n := float64(x.Cols)
	for r := 0; r < x.Rows; r++ {
		row := x.Data[r*x.Cols : (r+1)*x.Cols]
		orow := out.Data[r*x.Cols : (r+1)*x.Cols]
		mean := 0.0
		for _, v := range row {
			mean += v
		}
		mean /= n
		variance := 0.0
		for _, v := range row {
			d := v - mean
			variance += d * d
		}
		variance /= n
		inv := 1 / math.Sqrt(variance+eps)
		for j, v := range row {
			orow[j] = (v-mean)*inv*gain.Data[j] + bias.Data[j]
		}
	}
	return out
}

// applyActGraph is the autograd (nil-ctx) epilogue matching applyAct.
func applyActGraph(t *Tensor, act Act) *Tensor {
	switch act {
	case ActReLU:
		return ReLU(t)
	case ActSigmoid:
		return Sigmoid(t)
	case ActTanh:
		return Tanh(t)
	default:
		return t
	}
}
