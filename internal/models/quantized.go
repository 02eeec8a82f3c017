package models

// Int8 quantized mirrors of the trained predictors (DESIGN.md §10). A
// quantized model embeds its float source — training, the autograd scoring
// path and Params all delegate — and overrides only the batch methods with
// the int8 kernel composition. The mirrors therefore slot into
// DeltaScoresWith/TopPagesWith unchanged: a live ctx runs int8, a nil ctx
// falls back to the float model. These overrides MUST exist for every batch
// method the embedded float model has, or the mirror would silently run
// float. The int8 backbone and heads use the exact per-row kernels (per-row
// int8 GEMM, exact softmax/sigmoid, block-exact attention and mean), and
// QBinaryPage's float bit head runs as in BinaryPage. Either way a sample's
// scores are bit-identical at any batch size.
//
// Construction is two-phase. NewQ* quantizes the weights (per-channel
// symmetric int8) and leaves every layer in calibration mode: forwards run
// the float path while observers record activation ranges. Calibrate/Freeze
// (run by the Quantize* helpers over a short sample pass) locks the
// activation scales and switches the forward to int8. Embeddings, position
// tables, LayerNorm and softmax stay float.

import (
	"fmt"

	"mpgraph/internal/nn"
	"mpgraph/internal/tensor"
)

// calibLimit caps the calibration pass: activation ranges saturate after a
// few dozen representative samples, and quantization is on the experiment
// build path where suites are constructed many times.
const calibLimit = 64

// --- quantized AMMA backbone ---

// qModalityEncoder mirrors modalityEncoder: quantized input projection (for
// the feature modality) and attention; embedding table and position row are
// shared with the float source.
type qModalityEncoder struct {
	src  *modalityEncoder
	lin  *nn.QLinear // nil for token modalities
	attn *nn.QSelfAttention
}

func quantizeModalityEncoder(m *modalityEncoder) *qModalityEncoder {
	q := &qModalityEncoder{src: m, attn: nn.NewQSelfAttention(m.attn)}
	if m.lin != nil {
		q.lin = nn.NewQLinear(m.lin)
	}
	return q
}

func (m *qModalityEncoder) freeze() {
	if m.lin != nil {
		m.lin.Freeze()
	}
	m.attn.Freeze()
}

// qAMMACore mirrors ammaCore; the phase embedding lookup stays float.
type qAMMACore struct {
	src        *ammaCore
	modA, modB *qModalityEncoder
	fusion     *nn.QMMAF
	trans      []*nn.QTransformerLayer
}

func quantizeAMMACore(core *ammaCore) *qAMMACore {
	qc := &qAMMACore{
		src:    core,
		modA:   quantizeModalityEncoder(core.modA),
		modB:   quantizeModalityEncoder(core.modB),
		fusion: nn.NewQMMAF(core.fusion),
	}
	for _, tl := range core.trans {
		qc.trans = append(qc.trans, nn.NewQTransformerLayer(tl))
	}
	return qc
}

func (qc *qAMMACore) freeze() {
	qc.modA.freeze()
	qc.modB.freeze()
	qc.fusion.Freeze()
	for _, tl := range qc.trans {
		tl.Freeze()
	}
}

// --- quantized predictors ---

// QAMMADelta is the int8 mirror of AMMADelta. The embedded float model
// serves training, Params and the nil-ctx path.
type QAMMADelta struct {
	*AMMADelta
	qcore *qAMMACore
	qhead *nn.QMLP
}

// NewQAMMADelta quantizes m's weights; the mirror starts in calibration
// mode (see Calibrate/Freeze).
func NewQAMMADelta(m *AMMADelta) *QAMMADelta {
	return &QAMMADelta{AMMADelta: m, qcore: quantizeAMMACore(m.core), qhead: nn.NewQMLP(m.head)}
}

// Freeze locks the calibrated activation scales.
func (m *QAMMADelta) Freeze() {
	m.qcore.freeze()
	m.qhead.Freeze()
}

// QAMMAPage is the int8 mirror of AMMAPage.
type QAMMAPage struct {
	*AMMAPage
	qcore *qAMMACore
	qhead *nn.QMLP
}

// NewQAMMAPage quantizes m's weights; the mirror starts in calibration mode.
func NewQAMMAPage(m *AMMAPage) *QAMMAPage {
	return &QAMMAPage{AMMAPage: m, qcore: quantizeAMMACore(m.core), qhead: nn.NewQMLP(m.head)}
}

// Freeze locks the calibrated activation scales.
func (m *QAMMAPage) Freeze() {
	m.qcore.freeze()
	m.qhead.Freeze()
}

// QBinaryPage is the int8 mirror of the binary-encoded compressed page
// predictor — the §6.1 configuration the int8 engine exists for: compressed
// storage AND integer inference speed. The backbone runs int8; the head
// stays FLOAT: it is FusionDim x log2(vocab) (a few hundred weights, no
// storage or compute to win), and its outputs are thresholded at 0.5 to
// decode a bit code, where quantization noise on a near-threshold logit
// flips the entire decoded id rather than perturbing a ranking.
type QBinaryPage struct {
	*BinaryPage
	qcore *qAMMACore
}

// NewQBinaryPage quantizes m's backbone weights; the mirror starts in
// calibration mode.
func NewQBinaryPage(m *BinaryPage) *QBinaryPage {
	return &QBinaryPage{BinaryPage: m, qcore: quantizeAMMACore(m.core)}
}

// Freeze locks the calibrated activation scales.
func (m *QBinaryPage) Freeze() {
	m.qcore.freeze()
}

// --- int8 forwards ---

//mpgraph:noalloc
func (m *qModalityEncoder) encodeFeaturesBatchCtx(c *tensor.Ctx, x *tensor.Tensor, blocks int) *tensor.Tensor {
	return m.attn.ForwardBatchCtx(c, c.AddPosBatch(m.lin.ForwardCtx(c, x), m.src.pos, blocks), blocks)
}

//mpgraph:noalloc
func (m *qModalityEncoder) encodeTokensBatchCtx(c *tensor.Ctx, ids []int, blocks int) *tensor.Tensor {
	return m.attn.ForwardBatchCtx(c, c.AddPosBatch(m.src.table.ForwardCtx(c, ids), m.src.pos, blocks), blocks)
}

// forwardBatchCtx is ammaCore.forwardBatchCtx on the int8 kernels.
//
//mpgraph:noalloc
func (qc *qAMMACore) forwardBatchCtx(c *tensor.Ctx, encA, encB *tensor.Tensor, ss []*Sample) *tensor.Tensor {
	blocks := len(ss)
	fused := qc.fusion.ForwardBatchCtx2(c, encA, encB, blocks) //mpgraph:allow noalloc -- fixed-arity fast path; the cross-package naming rule keys on a Ctx suffix
	if qc.src.phaseEmb != nil {
		ids := phaseIDsBatch(c, ss, qc.src.phaseEmb.Vocab()) //mpgraph:allow noalloc -- Vocab is a field read
		fused = c.AddRowPerBlock(fused, qc.src.phaseEmb.Table, ids, blocks)
	}
	for _, tl := range qc.trans {
		fused = tl.ForwardBatchCtx(c, fused, blocks)
	}
	return c.MeanRowsBatch(fused, blocks)
}

//mpgraph:noalloc
func (m *QAMMADelta) qlogitsBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor {
	t := batchT(ss)
	encA := m.qcore.modA.encodeFeaturesBatchCtx(c, addrFeatureTensorBatchCtx(c, m.cfg, ss, t), len(ss))
	encB := m.qcore.modB.encodeTokensBatchCtx(c, pcTokensBatchCtx(c, m.pcs, ss, t), len(ss))
	return m.qhead.ForwardCtx(c, m.qcore.forwardBatchCtx(c, encA, encB, ss))
}

// DeltaScoresBatchCtx implements DeltaScorerBatchCtx on the int8 path.
//
//mpgraph:noalloc
func (m *QAMMADelta) DeltaScoresBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor {
	return c.SigmoidInPlace(m.qlogitsBatchCtx(c, ss))
}

//mpgraph:noalloc
func (m *QAMMAPage) qlogitsBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor {
	t := batchT(ss)
	encA := m.qcore.modA.encodeTokensBatchCtx(c, pageTokensBatchCtx(c, m.pages, ss, t), len(ss))
	encB := m.qcore.modB.encodeTokensBatchCtx(c, pcTokensBatchCtx(c, m.pcs, ss, t), len(ss))
	return m.qhead.ForwardCtx(c, m.qcore.forwardBatchCtx(c, encA, encB, ss))
}

// TopPagesBatchAppendCtx implements PageTopperBatchCtx on the int8 path.
//
//mpgraph:noalloc
func (m *QAMMAPage) TopPagesBatchAppendCtx(c *tensor.Ctx, ss []*Sample, k int, dst [][]uint64) {
	topPagesRows(c, m.pages, m.qlogitsBatchCtx(c, ss), k, dst)
}

// TopPagesBatchAppendCtx implements PageTopperBatchCtx: the backbone runs
// int8, the float head and bit decode run as in BinaryPage.
//
//mpgraph:noalloc
func (m *QBinaryPage) TopPagesBatchAppendCtx(c *tensor.Ctx, ss []*Sample, k int, dst [][]uint64) {
	t := batchT(ss)
	encA := m.qcore.modA.encodeTokensBatchCtx(c, pageTokensBatchCtx(c, m.pages, ss, t), len(ss))
	encB := m.qcore.modB.encodeTokensBatchCtx(c, pcTokensBatchCtx(c, m.pcs, ss, t), len(ss))
	m.topPagesFromPooled(c, m.qcore.forwardBatchCtx(c, encA, encB, ss), k, dst)
}

// --- calibration and suite quantization ---

// calibrateDelta runs up to calibLimit samples through q, still in
// calibration mode, as one batch, then freezes it. Observers record max-abs
// ranges, which one batch covers exactly as per-sample calls would.
func calibrateDelta(q DeltaScorerBatchCtx, freeze func(), samples []*Sample) {
	if ss := calibrationBatch(samples); len(ss) > 0 {
		q.DeltaScoresBatchCtx(tensor.NewCtx(), ss)
	}
	freeze()
}

// calibratePage is calibrateDelta for page mirrors.
func calibratePage(q PageTopperBatchCtx, freeze func(), samples []*Sample) {
	if ss := calibrationBatch(samples); len(ss) > 0 {
		q.TopPagesBatchAppendCtx(tensor.NewCtx(), ss, 1, make([][]uint64, len(ss)))
	}
	freeze()
}

func calibrationBatch(samples []*Sample) []*Sample {
	if len(samples) > calibLimit {
		return samples[:calibLimit]
	}
	return samples
}

// phaseSamples selects the calibration samples a phase-specific sub-model
// will actually see at inference (s.Phase mod the model count maps to it),
// falling back to the full set when the phase never occurs.
func phaseSamples(samples []*Sample, phase, nphases int) []*Sample {
	var out []*Sample
	for _, s := range samples {
		if s.Phase%nphases == phase {
			out = append(out, s)
			if len(out) == calibLimit {
				break
			}
		}
	}
	if len(out) == 0 {
		return samples
	}
	return out
}

// QuantizeDelta returns an int8 mirror of a trained delta model, calibrated
// on the given samples. AMMADelta and PhaseSpecificDelta (of AMMADeltas)
// are supported; anything else is an explicit error so callers cannot
// silently keep running float.
func QuantizeDelta(m DeltaModel, calib []*Sample) (DeltaModel, error) {
	switch t := m.(type) {
	case *AMMADelta:
		q := NewQAMMADelta(t)
		calibrateDelta(q, q.Freeze, calib)
		return q, nil
	case *PhaseSpecificDelta:
		out := &PhaseSpecificDelta{Models: make([]DeltaModel, len(t.Models))}
		for p, sub := range t.Models {
			qsub, err := QuantizeDelta(sub, phaseSamples(calib, p, len(t.Models)))
			if err != nil {
				return nil, fmt.Errorf("phase %d: %w", p, err)
			}
			out.Models[p] = qsub
		}
		return out, nil
	default:
		return nil, fmt.Errorf("models: no int8 mirror for delta model %T", m)
	}
}

// QuantizePage returns an int8 mirror of a trained page model, calibrated
// on the given samples. AMMAPage, BinaryPage and PhaseSpecificPage are
// supported.
func QuantizePage(m PageModel, calib []*Sample) (PageModel, error) {
	switch t := m.(type) {
	case *AMMAPage:
		q := NewQAMMAPage(t)
		calibratePage(q, q.Freeze, calib)
		return q, nil
	case *BinaryPage:
		q := NewQBinaryPage(t)
		calibratePage(q, q.Freeze, calib)
		return q, nil
	case *PhaseSpecificPage:
		out := &PhaseSpecificPage{Models: make([]PageModel, len(t.Models))}
		for p, sub := range t.Models {
			qsub, err := QuantizePage(sub, phaseSamples(calib, p, len(t.Models)))
			if err != nil {
				return nil, fmt.Errorf("phase %d: %w", p, err)
			}
			out.Models[p] = qsub
		}
		return out, nil
	default:
		return nil, fmt.Errorf("models: no int8 mirror for page model %T", m)
	}
}

// QuantizeSuite quantizes a delta/page model pair with one calibration
// sample set — the wiring the experiments pipeline uses under Options.Int8.
func QuantizeSuite(delta DeltaModel, page PageModel, calib []*Sample) (DeltaModel, PageModel, error) {
	qd, err := QuantizeDelta(delta, calib)
	if err != nil {
		return nil, nil, err
	}
	qp, err := QuantizePage(page, calib)
	if err != nil {
		return nil, nil, err
	}
	return qd, qp, nil
}
