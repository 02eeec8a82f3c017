package models

import (
	"math"

	"mpgraph/internal/invariant"
	"mpgraph/internal/tensor"
	"mpgraph/internal/trace"
)

// Arena inference (DESIGN.md §8, §11). Every model runs one forward
// composition: a batch B stacks B same-length history samples session-major
// into one [B*T x d] activation block and runs a single fused pass, so every
// weight panel streams through cache once for B predictions instead of B
// times. A single prediction is the B=1 case: DeltaScoresWith and
// TopPagesWith hand the model's batch method a one-sample batch. A nil ctx
// (or a model with no batch method) takes the allocating autograd path.
//
// Determinism: every batched op computes a session block as a pure function
// of that session's rows, so scores never depend on batch composition —
// batch-1 and batch-64 produce identical bits, which keeps sweep reports
// byte-identical with or without a batch scheduler and at any batch size.

// DeltaScorerBatchCtx is a DeltaModel with an arena fast path: row i of the
// returned tensor holds the scores for ss[i]. Arena-backed, valid until the
// ctx is reset.
type DeltaScorerBatchCtx interface {
	DeltaScoresBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor
}

// PageTopperBatchCtx is a PageModel with an arena fast path: up to k pages
// for ss[i] are appended to dst[i] in place.
type PageTopperBatchCtx interface {
	TopPagesBatchAppendCtx(c *tensor.Ctx, ss []*Sample, k int, dst [][]uint64)
}

// DeltaScoresWith scores s. With a live ctx it runs m's batch method on s
// as a batch of one, viewed through s itself, so a caller that reuses a
// scratch sample scores without allocating. Phase-specific models dispatch
// on s.Phase first. The scores are arena-backed, valid until c is reset.
//
//mpgraph:noalloc
func DeltaScoresWith(c *tensor.Ctx, m DeltaModel, s *Sample) []float64 {
	if ps, ok := m.(*PhaseSpecificDelta); ok {
		return DeltaScoresWith(c, ps.modelFor(s.Phase), s)
	}
	if c == nil {
		return m.DeltaScores(s)
	}
	bc, ok := m.(DeltaScorerBatchCtx)
	if !ok {
		return m.DeltaScores(s) //mpgraph:allow noalloc -- models without a batch method (test doubles) take the autograd path
	}
	one := s.batchOfOne()
	return bc.DeltaScoresBatchCtx(c, one).Data //mpgraph:allow noalloc -- interface dispatch; every batch method is itself proven noalloc
}

// TopPagesWith appends m's top-k pages for s to dst, running m's batch
// method on a batch of one under a live ctx (see DeltaScoresWith).
//
//mpgraph:noalloc
func TopPagesWith(c *tensor.Ctx, m PageModel, s *Sample, k int, dst []uint64) []uint64 {
	if ps, ok := m.(*PhaseSpecificPage); ok {
		return TopPagesWith(c, ps.modelFor(s.Phase), s, k, dst)
	}
	if c == nil {
		return append(dst, m.TopPages(s, k)...)
	}
	bc, ok := m.(PageTopperBatchCtx)
	if !ok {
		return append(dst, m.TopPages(s, k)...) //mpgraph:allow noalloc -- models without a batch method (test doubles) take the autograd path
	}
	one, rows := s.batchOfOne(), s.pages[:]
	rows[0] = dst
	bc.TopPagesBatchAppendCtx(c, one, k, rows) //mpgraph:allow noalloc -- interface dispatch; every batch method is itself proven noalloc
	dst, rows[0] = rows[0], nil
	return dst
}

// DeltaScoresBatchWith scores every sample in one fused pass when m supports
// it (and c is non-nil), falling back to one DeltaScoresWith per sample
// (phase-specific models, whose samples may route to different sub-models).
func DeltaScoresBatchWith(c *tensor.Ctx, m DeltaModel, ss []*Sample) *tensor.Tensor {
	if bc, ok := m.(DeltaScorerBatchCtx); ok && c != nil {
		return bc.DeltaScoresBatchCtx(c, ss)
	}
	var out *tensor.Tensor
	for i, s := range ss {
		scores := DeltaScoresWith(c, m, s)
		if out == nil {
			if c != nil {
				out = c.Zeros(len(ss), len(scores))
			} else {
				out = tensor.Zeros(len(ss), len(scores))
			}
		}
		copy(out.Data[i*len(scores):(i+1)*len(scores)], scores)
	}
	return out
}

// TopPagesBatchWith ranks pages for every sample in one fused pass when m
// supports it, falling back to one TopPagesWith per sample. dst[i] receives
// ss[i]'s pages appended in place.
func TopPagesBatchWith(c *tensor.Ctx, m PageModel, ss []*Sample, k int, dst [][]uint64) {
	if bc, ok := m.(PageTopperBatchCtx); ok && c != nil {
		bc.TopPagesBatchAppendCtx(c, ss, k, dst)
		return
	}
	for i, s := range ss {
		dst[i] = TopPagesWith(c, m, s, k, dst[i])
	}
}

// AppendDeltaTargets screens a delta score vector, ranks the top-k classes,
// and decodes each class back to a block target around base, appending the
// non-negative targets to dst. This is the shared score→prefetch decode the
// CSTP paths (core and prefetch) and the batch scheduler all use; class
// cfgRange-1 maps to delta -1, cfgRange to +1 (no zero delta).
//
//mpgraph:noalloc
func AppendDeltaTargets(c *tensor.Ctx, scores []float64, base uint64, k int, dst []uint64) ([]uint64, error) {
	if err := ScreenScores(scores); err != nil { //mpgraph:allow noalloc -- allocates only on the non-finite failure path, which degrades the prefetcher
		return dst, err
	}
	cfgRange := len(scores) / 2
	for _, cls := range TopKClassesCtx(c, scores, k) {
		var d int64
		if cls < cfgRange {
			d = int64(cls) - int64(cfgRange)
		} else {
			d = int64(cls) - int64(cfgRange) + 1
		}
		if t := int64(base) + d; t >= 0 {
			dst = append(dst, uint64(t))
		}
	}
	return dst, nil
}

// TopKClassesCtx is TopKClasses with the index scratch drawn from the
// arena; a nil ctx falls back to the allocating sort.
//
//mpgraph:noalloc
func TopKClassesCtx(c *tensor.Ctx, scores []float64, k int) []int {
	if c == nil {
		return TopKClasses(scores, k)
	}
	return topKSelectInto(c.Ints(len(scores)), scores, k)
}

// topKSelectInto ranks the k best-scoring indices into idxBuf (length
// len(scores)) by partial selection sort, reproducing TopKClasses' order
// exactly — descending score, equal scores broken by lower index — without
// sort.Slice's allocations.
//
//mpgraph:noalloc
func topKSelectInto(idxBuf []int, scores []float64, k int) []int {
	n := len(scores)
	for i := range idxBuf {
		idxBuf[i] = i
	}
	if k > n {
		k = n
	}
	for j := 0; j < k; j++ {
		best := j
		for i := j + 1; i < n; i++ {
			bi, bb := idxBuf[i], idxBuf[best]
			if scores[bi] > scores[bb] ||
				(scores[bi] == scores[bb] && bi < bb) { //mpgraph:allow floateq -- exact tie-break matches TopKClasses ordering
				best = i
			}
		}
		idxBuf[j], idxBuf[best] = idxBuf[best], idxBuf[j]
	}
	return idxBuf[:k]
}

// topPagesAppendCtx maps the best-scoring known tokens back to page values,
// appending to dst (the ctx analogue of topPagesFromScores).
//
//mpgraph:noalloc
func topPagesAppendCtx(c *tensor.Ctx, pages *Vocab, scores []float64, k int, dst []uint64) []uint64 {
	added := 0
	for _, tok := range topKSelectInto(c.Ints(len(scores)), scores, k+1) {
		if page, ok := pages.Value(tok); ok {
			dst = append(dst, page)
			added++
			if added == k {
				break
			}
		}
	}
	return dst
}

// topPagesRows decodes row i of a [B x vocab] score block into dst[i].
//
//mpgraph:noalloc
func topPagesRows(c *tensor.Ctx, pages *Vocab, scores *tensor.Tensor, k int, dst [][]uint64) {
	for i := range dst {
		dst[i] = topPagesAppendCtx(c, pages, scores.Data[i*scores.Cols:(i+1)*scores.Cols], k, dst[i])
	}
}

// binaryTopPagesAppendCtx is the arena analogue of BinaryPage.TopPages'
// candidate decode: rank bits by confidence distance from 0.5 (ascending,
// the same swap-on-less pass as the float path so tie ordering is
// identical), then try the maximum-likelihood code followed by single-bit
// flips in uncertainty order, keeping up to k distinct known pages.
//
//mpgraph:noalloc
func binaryTopPagesAppendCtx(c *tensor.Ctx, pages *Vocab, probs []float64, k int, dst []uint64) []uint64 {
	base := DecodeBinary(probs)
	order := c.Ints(len(probs))
	for i := range order {
		order[i] = i
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if math.Abs(probs[order[j]]-0.5) < math.Abs(probs[order[i]]-0.5) {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	// Candidate ci=0 is the base code; ci>0 flips bit order[ci-1]. The 4k
	// cap and known-page dedupe match the float path; dedupe scans the
	// region appended by this call instead of a map.
	start := len(dst)
	added := 0
	for ci := 0; ci < 4*k && ci <= len(order); ci++ {
		id := base
		if ci > 0 {
			id = base ^ (1 << order[ci-1])
		}
		page, ok := pages.Value(id)
		if !ok {
			continue
		}
		dup := false
		for _, p := range dst[start:] {
			if p == page {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		dst = append(dst, page)
		added++
		if added == k {
			break
		}
	}
	return dst
}

// --- stacked gather helpers ---

// batchT validates the uniform window length the stacked layout requires and
// returns it.
//
//mpgraph:noalloc
func batchT(ss []*Sample) int {
	if len(ss) == 0 {
		invariant.Fail("models: empty batch")
	}
	t := len(ss[0].Blocks)
	for _, s := range ss {
		if len(s.Blocks) != t || len(s.PCs) != t {
			invariant.Failf("models: ragged batch: %d/%d rows vs %d", len(s.Blocks), len(s.PCs), t)
		}
	}
	return t
}

//mpgraph:noalloc
func pcTokensBatchCtx(c *tensor.Ctx, v *Vocab, ss []*Sample, t int) []int {
	out := c.Ints(len(ss) * t)
	for i, s := range ss {
		for j, pc := range s.PCs {
			out[i*t+j] = v.Token(pc)
		}
	}
	return out
}

//mpgraph:noalloc
func pageTokensBatchCtx(c *tensor.Ctx, v *Vocab, ss []*Sample, t int) []int {
	out := c.Ints(len(ss) * t)
	for i, s := range ss {
		for j, b := range s.Blocks {
			out[i*t+j] = v.Token(trace.PageOfBlock(b))
		}
	}
	return out
}

// addrFeatureTensorBatchCtx stacks addrFeatureTensorCtx for every sample.
//
//mpgraph:noalloc
func addrFeatureTensorBatchCtx(c *tensor.Ctx, cfg Config, ss []*Sample, t int) *tensor.Tensor {
	out := c.Zeros(len(ss)*t, cfg.NumSegments)
	for i, s := range ss {
		for j, b := range s.Blocks {
			r := i*t + j
			SegmentBlockInto(cfg, b, out.Data[r*cfg.NumSegments:(r+1)*cfg.NumSegments])
		}
	}
	return out
}

// concatStepFeaturesBatchCtx stacks concatStepFeaturesCtx for every sample.
//
//mpgraph:noalloc
func concatStepFeaturesBatchCtx(c *tensor.Ctx, cfg Config, ss []*Sample, t int) *tensor.Tensor {
	cols := cfg.NumSegments + 1
	out := c.Zeros(len(ss)*t, cols)
	for i, s := range ss {
		for j := range s.Blocks {
			r := i*t + j
			SegmentBlockInto(cfg, s.Blocks[j], out.Data[r*cols:r*cols+cfg.NumSegments])
			out.Data[r*cols+cfg.NumSegments] = hashPC(s.PCs[j])
		}
	}
	return out
}

// phaseIDsBatch gathers each session's phase-embedding row id.
//
//mpgraph:noalloc
func phaseIDsBatch(c *tensor.Ctx, ss []*Sample, vocab int) []int {
	ids := c.Ints(len(ss))
	for i, s := range ss {
		ids[i] = s.Phase % vocab
	}
	return ids
}

// --- batched modality encoders / AMMA core (float) ---

//mpgraph:noalloc
func (m *modalityEncoder) encodeFeaturesBatchCtx(c *tensor.Ctx, x *tensor.Tensor, blocks int) *tensor.Tensor {
	return m.attn.ForwardBatchCtx(c, c.AddPosBatch(m.lin.ForwardBatchCtx(c, x), m.pos, blocks), blocks)
}

//mpgraph:noalloc
func (m *modalityEncoder) encodeTokensBatchCtx(c *tensor.Ctx, ids []int, blocks int) *tensor.Tensor {
	return m.attn.ForwardBatchCtx(c, c.AddPosBatch(m.table.ForwardCtx(c, ids), m.pos, blocks), blocks)
}

// forwardBatchCtx fuses the two modality encodings, adds the per-session
// phase embedding, runs the transformer stack and pools each session block.
//
//mpgraph:noalloc
func (core *ammaCore) forwardBatchCtx(c *tensor.Ctx, encA, encB *tensor.Tensor, ss []*Sample) *tensor.Tensor {
	blocks := len(ss)
	fused := core.fusion.ForwardBatchCtx2(c, encA, encB, blocks) //mpgraph:allow noalloc -- fixed-arity fast path; the cross-package naming rule keys on a Ctx suffix
	if core.phaseEmb != nil {
		ids := phaseIDsBatch(c, ss, core.phaseEmb.Vocab()) //mpgraph:allow noalloc -- Vocab is a field read
		fused = c.AddRowPerBlock(fused, core.phaseEmb.Table, ids, blocks)
	}
	for _, tl := range core.trans {
		fused = tl.ForwardBatchCtx(c, fused, blocks)
	}
	return c.MeanRowsBatch(fused, blocks)
}

// --- AMMA ---

//mpgraph:noalloc
func (m *AMMADelta) logitsBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor {
	t := batchT(ss)
	encA := m.core.modA.encodeFeaturesBatchCtx(c, addrFeatureTensorBatchCtx(c, m.cfg, ss, t), len(ss))
	encB := m.core.modB.encodeTokensBatchCtx(c, pcTokensBatchCtx(c, m.pcs, ss, t), len(ss))
	return m.head.ForwardBatchCtx(c, m.core.forwardBatchCtx(c, encA, encB, ss))
}

// DeltaScoresBatchCtx implements DeltaScorerBatchCtx.
//
//mpgraph:noalloc
func (m *AMMADelta) DeltaScoresBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor {
	return c.SigmoidInPlaceFast(m.logitsBatchCtx(c, ss))
}

//mpgraph:noalloc
func (m *AMMAPage) logitsBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor {
	t := batchT(ss)
	encA := m.core.modA.encodeTokensBatchCtx(c, pageTokensBatchCtx(c, m.pages, ss, t), len(ss))
	encB := m.core.modB.encodeTokensBatchCtx(c, pcTokensBatchCtx(c, m.pcs, ss, t), len(ss))
	return m.head.ForwardBatchCtx(c, m.core.forwardBatchCtx(c, encA, encB, ss))
}

// TopPagesBatchAppendCtx implements PageTopperBatchCtx.
//
//mpgraph:noalloc
func (m *AMMAPage) TopPagesBatchAppendCtx(c *tensor.Ctx, ss []*Sample, k int, dst [][]uint64) {
	topPagesRows(c, m.pages, m.logitsBatchCtx(c, ss), k, dst)
}

// --- baselines ---

//mpgraph:noalloc
func (m *LSTMDelta) logitsBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor {
	t := batchT(ss)
	x := concatStepFeaturesBatchCtx(c, m.cfg, ss, t)
	return m.head.ForwardBatchCtx(c, m.lstm.ForwardBatchCtx(c, x, len(ss)))
}

// DeltaScoresBatchCtx implements DeltaScorerBatchCtx.
//
//mpgraph:noalloc
func (m *LSTMDelta) DeltaScoresBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor {
	return c.SigmoidInPlaceFast(m.logitsBatchCtx(c, ss))
}

//mpgraph:noalloc
func (m *LSTMPage) logitsBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor {
	t := batchT(ss)
	pe := m.pageEmb.ForwardCtx(c, pageTokensBatchCtx(c, m.pages, ss, t))
	ce := m.pcEmb.ForwardCtx(c, pcTokensBatchCtx(c, m.pcs, ss, t))
	return m.head.ForwardBatchCtx(c, m.lstm.ForwardBatchCtx(c, c.ConcatCols2(pe, ce), len(ss)))
}

// TopPagesBatchAppendCtx implements PageTopperBatchCtx.
//
//mpgraph:noalloc
func (m *LSTMPage) TopPagesBatchAppendCtx(c *tensor.Ctx, ss []*Sample, k int, dst [][]uint64) {
	topPagesRows(c, m.pages, m.logitsBatchCtx(c, ss), k, dst)
}

//mpgraph:noalloc
func (m *AttnDelta) logitsBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor {
	t := batchT(ss)
	x := c.AddPosBatch(m.embed.ForwardBatchCtx(c, concatStepFeaturesBatchCtx(c, m.cfg, ss, t)), m.pos, len(ss))
	for _, tl := range m.trans {
		x = tl.ForwardBatchCtx(c, x, len(ss))
	}
	return m.head.ForwardBatchCtx(c, c.MeanRowsBatch(x, len(ss)))
}

// DeltaScoresBatchCtx implements DeltaScorerBatchCtx.
//
//mpgraph:noalloc
func (m *AttnDelta) DeltaScoresBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor {
	return c.SigmoidInPlaceFast(m.logitsBatchCtx(c, ss))
}

//mpgraph:noalloc
func (m *AttnPage) logitsBatchCtx(c *tensor.Ctx, ss []*Sample) *tensor.Tensor {
	t := batchT(ss)
	pe := m.pageEmb.ForwardCtx(c, pageTokensBatchCtx(c, m.pages, ss, t))
	side := c.Zeros(len(ss)*t, 1)
	for i, s := range ss {
		for j, pc := range s.PCs {
			side.Data[i*t+j] = hashPC(pc)
		}
	}
	x := c.AddPosBatch(m.mix.ForwardBatchCtx(c, c.ConcatCols2(pe, side)), m.pos, len(ss))
	for _, tl := range m.trans {
		x = tl.ForwardBatchCtx(c, x, len(ss))
	}
	return m.head.ForwardBatchCtx(c, c.MeanRowsBatch(x, len(ss)))
}

// TopPagesBatchAppendCtx implements PageTopperBatchCtx.
//
//mpgraph:noalloc
func (m *AttnPage) TopPagesBatchAppendCtx(c *tensor.Ctx, ss []*Sample, k int, dst [][]uint64) {
	topPagesRows(c, m.pages, m.logitsBatchCtx(c, ss), k, dst)
}

// --- binary-encoded compressed head ---

// TopPagesBatchAppendCtx implements PageTopperBatchCtx.
//
//mpgraph:noalloc
func (m *BinaryPage) TopPagesBatchAppendCtx(c *tensor.Ctx, ss []*Sample, k int, dst [][]uint64) {
	t := batchT(ss)
	encA := m.core.modA.encodeTokensBatchCtx(c, pageTokensBatchCtx(c, m.pages, ss, t), len(ss))
	encB := m.core.modB.encodeTokensBatchCtx(c, pcTokensBatchCtx(c, m.pcs, ss, t), len(ss))
	m.topPagesFromPooled(c, m.core.forwardBatchCtx(c, encA, encB, ss), k, dst)
}

// topPagesFromPooled runs the float bit head over the pooled backbone rows
// and decodes row i's bit code into dst[i]. The f32 and int8 mirrors share
// it: they swap the backbone, never the head.
//
//mpgraph:noalloc
func (m *BinaryPage) topPagesFromPooled(c *tensor.Ctx, pooled *tensor.Tensor, k int, dst [][]uint64) {
	probs := c.SigmoidInPlaceFast(m.head.ForwardBatchCtx(c, pooled))
	for i := range dst {
		dst[i] = binaryTopPagesAppendCtx(c, m.pages, probs.Data[i*probs.Cols:(i+1)*probs.Cols], k, dst[i])
	}
}
