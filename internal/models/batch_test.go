package models

import (
	"math"
	"testing"

	"mpgraph/internal/tensor"
)

// batchSamples builds B distinct same-length samples inside the test vocabs.
func batchSamples(cfg Config, b int) []*Sample {
	ss := make([]*Sample, b)
	for i := 0; i < b; i++ {
		blocks := make([]uint64, cfg.HistoryT)
		pcs := make([]uint64, cfg.HistoryT)
		for j := range blocks {
			blocks[j] = uint64(1<<14+(i*3+j)%40)<<6 + uint64((i+j)%7)
			pcs[j] = 0x400000 + 0x40*uint64((i+j)%5)
		}
		ss[i] = &Sample{Blocks: blocks, PCs: pcs, Phase: i % 3}
	}
	return ss
}

func batchTestVocabs(cfg Config) (pages, pcs *Vocab) {
	var pcVals, pageVals []uint64
	for i := 0; i < 40; i++ {
		pcVals = append(pcVals, 0x400000+0x40*uint64(i))
		pageVals = append(pageVals, uint64(1<<14+i))
	}
	return BuildVocab(pageVals, cfg.PageVocab), BuildVocab(pcVals, cfg.PCVocab)
}

// TestBatchMatchesSequential: a sample scored alone (DeltaScoresWith, a
// batch of one) and the same sample inside a batch of 8 or 64 must give
// identical bits and identical page lists. Batch results independent of batch
// composition are what keep sweep reports byte-identical with or without a
// batch scheduler and at any batch size. Parity with the autograd path is
// TestCtxScorersMatchSlowPath's.
func TestBatchMatchesSequential(t *testing.T) {
	cfg := SmallConfig()
	pages, pcs := batchTestVocabs(cfg)
	restore := tensor.SetGradEnabled(false)
	defer tensor.SetGradEnabled(restore)

	deltaModels := map[string]DeltaModel{
		"lstm-delta": NewLSTMDelta(cfg, 1),
		"attn-delta": NewAttnDelta(cfg, 2),
		"amma-delta": NewAMMADelta(cfg, pcs, 0, 3),
		"pi-delta":   NewAMMADelta(cfg, pcs, 3, 4),
	}
	pageModels := map[string]PageModel{
		"lstm-page": NewLSTMPage(cfg, pages, pcs, 6),
		"attn-page": NewAttnPage(cfg, pages, pcs, 7),
		"amma-page": NewAMMAPage(cfg, pages, pcs, 0, 8),
		"pi-page":   NewAMMAPage(cfg, pages, pcs, 3, 9),
		"bin-page":  NewBinaryPage(cfg, pages, pcs, 10),
	}

	seqCtx := tensor.NewCtx()
	for _, B := range []int{1, 8, 64} {
		ss := batchSamples(cfg, B)
		for name, m := range deltaModels {
			ctx := tensor.NewCtx()
			out := DeltaScoresBatchWith(ctx, m, ss)
			if out.Rows != B {
				t.Fatalf("%s B=%d: got %d rows", name, B, out.Rows)
			}
			for i, s := range ss {
				seq := DeltaScoresWith(seqCtx, m, s)
				row := out.Data[i*out.Cols : (i+1)*out.Cols]
				if len(seq) != len(row) {
					t.Fatalf("%s B=%d: row %d width %d vs %d", name, B, i, len(row), len(seq))
				}
				for j := range seq {
					if math.Float64bits(seq[j]) != math.Float64bits(row[j]) {
						t.Fatalf("%s B=%d row %d: score[%d] = %x batched vs %x alone",
							name, B, i, j, math.Float64bits(row[j]), math.Float64bits(seq[j]))
					}
				}
				seqCtx.Reset()
			}
		}
		for name, m := range pageModels {
			ctx := tensor.NewCtx()
			dst := make([][]uint64, B)
			TopPagesBatchWith(ctx, m, ss, 3, dst)
			for i, s := range ss {
				seq := TopPagesWith(seqCtx, m, s, 3, nil)
				seqCtx.Reset()
				if len(seq) != len(dst[i]) {
					t.Fatalf("%s B=%d row %d: %d pages vs %d", name, B, i, len(dst[i]), len(seq))
				}
				for j := range seq {
					if seq[j] != dst[i][j] {
						t.Fatalf("%s B=%d row %d: page[%d] = %d batched vs %d sequential",
							name, B, i, j, dst[i][j], seq[j])
					}
				}
			}
		}
	}
}

// TestBatchMatchesSequentialInt8: int8 scores and pages must be
// bit-identical for a sample scored alone and inside a batch of any size.
func TestBatchMatchesSequentialInt8(t *testing.T) {
	cfg := SmallConfig()
	pages, pcs := batchTestVocabs(cfg)
	restore := tensor.SetGradEnabled(false)
	defer tensor.SetGradEnabled(restore)

	calib := batchSamples(cfg, 16)
	qd, err := QuantizeDelta(NewAMMADelta(cfg, pcs, 3, 3), calib)
	if err != nil {
		t.Fatal(err)
	}
	qp, err := QuantizePage(NewAMMAPage(cfg, pages, pcs, 3, 8), calib)
	if err != nil {
		t.Fatal(err)
	}

	seqCtx := tensor.NewCtx()
	for _, B := range []int{1, 8, 64} {
		ss := batchSamples(cfg, B)
		ctx := tensor.NewCtx()
		out := DeltaScoresBatchWith(ctx, qd, ss)
		for i, s := range ss {
			seq := DeltaScoresWith(seqCtx, qd, s)
			row := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j := range seq {
				if math.Float64bits(seq[j]) != math.Float64bits(row[j]) {
					t.Fatalf("int8 delta B=%d row %d: score[%d] = %x batched vs %x sequential",
						B, i, j, math.Float64bits(row[j]), math.Float64bits(seq[j]))
				}
			}
			seqCtx.Reset()
		}

		dst := make([][]uint64, B)
		TopPagesBatchWith(ctx, qp, ss, 3, dst)
		for i, s := range ss {
			seq := TopPagesWith(seqCtx, qp, s, 3, nil)
			seqCtx.Reset()
			if len(seq) != len(dst[i]) {
				t.Fatalf("int8 page B=%d row %d: %d pages vs %d", B, i, len(dst[i]), len(seq))
			}
			for j := range seq {
				if seq[j] != dst[i][j] {
					t.Fatalf("int8 page B=%d row %d: page[%d] = %d vs %d", B, i, j, dst[i][j], seq[j])
				}
			}
		}
	}
}

// TestBatchZeroAlloc proves the stacked forward stays 0 allocs/op at batch 8
// and 64 once the arena is warm.
func TestBatchZeroAlloc(t *testing.T) {
	cfg := SmallConfig()
	pages, pcs := batchTestVocabs(cfg)
	restore := tensor.SetGradEnabled(false)
	defer tensor.SetGradEnabled(restore)

	calib := batchSamples(cfg, 16)
	qd, err := QuantizeDelta(NewAMMADelta(cfg, pcs, 3, 3), calib)
	if err != nil {
		t.Fatal(err)
	}

	models := map[string]DeltaModel{
		"lstm-delta":      NewLSTMDelta(cfg, 1),
		"amma-delta":      NewAMMADelta(cfg, pcs, 0, 3),
		"amma-delta-int8": qd,
	}
	_ = pages
	for name, m := range models {
		for _, B := range []int{8, 64} {
			ss := batchSamples(cfg, B)
			ctx := tensor.NewCtx()
			// Warm the arena slabs.
			for i := 0; i < 3; i++ {
				DeltaScoresBatchWith(ctx, m, ss)
				ctx.Reset()
			}
			avg := testing.AllocsPerRun(20, func() {
				DeltaScoresBatchWith(ctx, m, ss)
				ctx.Reset()
			})
			if avg != 0 {
				t.Fatalf("%s B=%d: %v allocs/op, want 0", name, B, avg)
			}
		}
	}
}

// --- benchmark pairs: one batch vs one call per sample, float and int8 ---

// benchBatchDelta times one DeltaScoresBatchWith pass over batch samples, or
// with sequential set, batch DeltaScoresWith calls (each a batch of one).
func benchBatchDelta(b *testing.B, m DeltaModel, batch int, sequential bool) {
	cfg := SmallConfig()
	ss := batchSamples(cfg, batch)
	restore := tensor.SetGradEnabled(false)
	defer tensor.SetGradEnabled(restore)
	ctx := tensor.NewCtx()
	// Warm the arena slabs so the steady state (0 allocs/op on the batch
	// path) is what gets measured.
	for i := 0; i < 3; i++ {
		if sequential {
			for _, s := range ss {
				DeltaScoresWith(ctx, m, s)
				ctx.Reset()
			}
		} else {
			DeltaScoresBatchWith(ctx, m, ss)
			ctx.Reset()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sequential {
			for _, s := range ss {
				DeltaScoresWith(ctx, m, s)
				ctx.Reset()
			}
		} else {
			DeltaScoresBatchWith(ctx, m, ss)
			ctx.Reset()
		}
	}
}

func benchDeltaModel() DeltaModel {
	return NewLSTMDelta(SmallConfig(), 1)
}

func benchInt8DeltaModel(b *testing.B) DeltaModel {
	cfg := SmallConfig()
	_, pcs := batchTestVocabs(cfg)
	qd, err := QuantizeDelta(NewAMMADelta(cfg, pcs, 3, 3), batchSamples(cfg, 16))
	if err != nil {
		b.Fatal(err)
	}
	return qd
}

// One batched pass over 8 histories vs 8 single-sample Operates — the
// "Legacy" benchmark is the baseline mpgraph-bench pairs it with.
func BenchmarkOperateBatch8(b *testing.B)       { benchBatchDelta(b, benchDeltaModel(), 8, false) }
func BenchmarkOperateBatch8Legacy(b *testing.B) { benchBatchDelta(b, benchDeltaModel(), 8, true) }

func BenchmarkOperateBatch64(b *testing.B)       { benchBatchDelta(b, benchDeltaModel(), 64, false) }
func BenchmarkOperateBatch64Legacy(b *testing.B) { benchBatchDelta(b, benchDeltaModel(), 64, true) }

func BenchmarkOperateBatch8Int8(b *testing.B) { benchBatchDelta(b, benchInt8DeltaModel(b), 8, false) }
func BenchmarkOperateBatch8Int8Legacy(b *testing.B) {
	benchBatchDelta(b, benchInt8DeltaModel(b), 8, true)
}

func BenchmarkOperateBatch64Int8(b *testing.B) { benchBatchDelta(b, benchInt8DeltaModel(b), 64, false) }
func BenchmarkOperateBatch64Int8Legacy(b *testing.B) {
	benchBatchDelta(b, benchInt8DeltaModel(b), 64, true)
}
