package models

import (
	"testing"

	"mpgraph/internal/tensor"
)

// quantTrainOpt is the brief training pass the parity tests use: enough
// epochs for the synthetic phases to become separable, small enough to keep
// the suite fast.
func quantParityData(t *testing.T) (*Dataset, *AMMADelta, *AMMAPage, *BinaryPage) {
	t.Helper()
	ds := synthDataset(t, 1600, 31)
	opt := TrainOptions{Epochs: 3, LR: 2e-3, Seed: 5, MaxSamplesPerEpoch: 700}
	delta := NewAMMADelta(ds.Cfg, ds.PCs, 0, 11)
	if err := TrainDelta(delta, ds, opt); err != nil {
		t.Fatal(err)
	}
	page := NewAMMAPage(ds.Cfg, ds.Pages, ds.PCs, 0, 17)
	if err := TrainPage(page, ds, opt); err != nil {
		t.Fatal(err)
	}
	bin := NewBinaryPage(ds.Cfg, ds.Pages, ds.PCs, 23)
	if err := TrainPage(bin, ds, opt); err != nil {
		t.Fatal(err)
	}
	return ds, delta, page, bin
}

// overlapAtK returns |topK(a) ∩ topK(b)| / k.
func overlapAtK(a, b []float64, k int) float64 {
	ta := TopKClasses(a, k)
	tb := TopKClasses(b, k)
	inB := map[int]bool{}
	for _, c := range tb {
		inB[c] = true
	}
	hit := 0
	for _, c := range ta {
		if inB[c] {
			hit++
		}
	}
	return float64(hit) / float64(k)
}

func TestQuantizedDeltaParity(t *testing.T) {
	ds, delta, _, _ := quantParityData(t)
	qm, err := QuantizeDelta(delta, ds.Samples)
	if err != nil {
		t.Fatal(err)
	}
	ctx := tensor.NewCtx()
	const topD = 8
	var overlapSum float64
	for _, s := range ds.Samples {
		want := delta.DeltaScores(s)
		got := DeltaScoresWith(ctx, qm, s)
		overlapSum += overlapAtK(got, want, topD)
		ctx.Reset()
	}
	if avg := overlapSum / float64(len(ds.Samples)); avg < 0.95 {
		t.Fatalf("delta top-%d overlap %.4f < 0.95 over %d samples", topD, avg, len(ds.Samples))
	}
}

func TestQuantizedPageParity(t *testing.T) {
	ds, _, page, _ := quantParityData(t)
	qm, err := QuantizePage(page, ds.Samples)
	if err != nil {
		t.Fatal(err)
	}
	ctx := tensor.NewCtx()
	agree, total := 0, 0
	var dst []uint64
	for _, s := range ds.Samples {
		want := page.TopPages(s, 1)
		dst = TopPagesWith(ctx, qm, s, 1, dst[:0])
		ctx.Reset()
		if len(want) == 0 && len(dst) == 0 {
			continue
		}
		total++
		if len(want) > 0 && len(dst) > 0 && want[0] == dst[0] {
			agree++
		}
	}
	if total == 0 {
		t.Fatal("no samples produced a page prediction")
	}
	if frac := float64(agree) / float64(total); frac < 0.99 {
		t.Fatalf("top-1 page agreement %.4f < 0.99 (%d/%d)", frac, agree, total)
	}
}

func TestQuantizedBinaryPageParity(t *testing.T) {
	ds, _, _, bin := quantParityData(t)
	qm, err := QuantizePage(bin, ds.Samples)
	if err != nil {
		t.Fatal(err)
	}
	ctx := tensor.NewCtx()
	agree, total := 0, 0
	var dst []uint64
	for _, s := range ds.Samples {
		want := bin.TopPages(s, 1)
		dst = TopPagesWith(ctx, qm, s, 1, dst[:0])
		ctx.Reset()
		if len(want) == 0 && len(dst) == 0 {
			continue
		}
		total++
		if len(want) > 0 && len(dst) > 0 && want[0] == dst[0] {
			agree++
		}
	}
	if total == 0 {
		t.Fatal("no samples produced a page prediction")
	}
	// The binary head decodes by thresholding each bit at 0.5, so backbone
	// quantization noise on a near-threshold bit flips the whole id instead
	// of nudging a ranking — the 99% bound of the softmax head is not
	// reachable here. 95% matches what the bit-flip candidate search
	// recovers (DESIGN.md §10).
	if frac := float64(agree) / float64(total); frac < 0.95 {
		t.Fatalf("binary top-1 page agreement %.4f < 0.95 (%d/%d)", frac, agree, total)
	}
}

func TestBinaryPageFastPathMatchesSlow(t *testing.T) {
	// The float BinaryPage arena path must reproduce TopPages exactly —
	// same candidate enumeration, same tie ordering.
	ds, _, _, bin := quantParityData(t)
	ctx := tensor.NewCtx()
	var dst []uint64
	for _, s := range ds.Samples[:200] {
		want := bin.TopPages(s, 3)
		dst = TopPagesWith(ctx, bin, s, 3, dst[:0])
		ctx.Reset()
		if len(want) != len(dst) {
			t.Fatalf("fast path returned %d pages, slow %d", len(dst), len(want))
		}
		for i := range want {
			if want[i] != dst[i] {
				t.Fatalf("fast path page[%d]=%d, slow %d", i, dst[i], want[i])
			}
		}
	}
}

func TestQuantizePhaseSpecific(t *testing.T) {
	ds := synthDataset(t, 1200, 41)
	opt := TrainOptions{Epochs: 2, LR: 2e-3, Seed: 5, MaxSamplesPerEpoch: 500}
	ps := NewPhaseSpecificDelta(ds.Cfg, ds.PCs, ds.NumPhases(), 13)
	if err := TrainDelta(ps, ds, opt); err != nil {
		t.Fatal(err)
	}
	qm, err := QuantizeDelta(ps, ds.Samples)
	if err != nil {
		t.Fatal(err)
	}
	qps, ok := qm.(*PhaseSpecificDelta)
	if !ok {
		t.Fatalf("quantized phase-specific is %T", qm)
	}
	for p, sub := range qps.Models {
		if _, ok := sub.(*QAMMADelta); !ok {
			t.Fatalf("phase %d sub-model is %T, want *QAMMADelta", p, sub)
		}
	}
	ctx := tensor.NewCtx()
	s := ds.Samples[0]
	got := DeltaScoresWith(ctx, qps, s)
	if len(got) != ds.Cfg.DeltaClasses() {
		t.Fatalf("scores width %d", len(got))
	}
}

func TestQuantizeUnsupportedModelErrors(t *testing.T) {
	ds := synthDataset(t, 800, 43)
	lstm := NewLSTMDelta(ds.Cfg, 3)
	if _, err := QuantizeDelta(lstm, ds.Samples); err == nil {
		t.Fatal("expected explicit error for unsupported delta model")
	}
	lstmp := NewLSTMPage(ds.Cfg, ds.Pages, ds.PCs, 3)
	if _, err := QuantizePage(lstmp, ds.Samples); err == nil {
		t.Fatal("expected explicit error for unsupported page model")
	}
}

func TestQuantizedNilCtxFallsBackToFloat(t *testing.T) {
	ds, delta, _, _ := quantParityData(t)
	qm, err := QuantizeDelta(delta, ds.Samples)
	if err != nil {
		t.Fatal(err)
	}
	q := qm.(*QAMMADelta)
	s := ds.Samples[0]
	want := delta.DeltaScores(s)
	got := DeltaScoresWith(nil, q, s)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("nil-ctx quantized path diverges from float at %d", i)
		}
	}
}

func TestQuantizeSuitePair(t *testing.T) {
	ds, delta, page, _ := quantParityData(t)
	qd, qp, err := QuantizeSuite(delta, page, ds.Samples)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := qd.(*QAMMADelta); !ok {
		t.Fatalf("suite delta is %T", qd)
	}
	if _, ok := qp.(*QAMMAPage); !ok {
		t.Fatalf("suite page is %T", qp)
	}
}
