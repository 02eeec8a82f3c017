package models

import (
	"fmt"

	"mpgraph/internal/trace"
)

// Sample is one supervised example extracted from the LLC access stream: a
// window of T past (block, PC) pairs, the ground-truth phase, and the two
// labels of Section 4.3 — the future-delta bitmap (spatial) and the next new
// page (temporal) — plus the next 10 pages for accuracy@10 scoring.
type Sample struct {
	Blocks []uint64
	PCs    []uint64
	Phase  int

	DeltaBits   []float64
	PageTok     int
	FuturePages []uint64

	// one and pages are the one-sample batch views DeltaScoresWith and
	// TopPagesWith hand a model's batch method. They live in the sample so
	// a caller that reuses a scratch sample scores without allocating; like
	// a tensor.Ctx, a sample is scored by one goroutine at a time.
	one   [1]*Sample
	pages [1][]uint64
}

// batchOfOne returns s as a one-sample batch backed by s itself.
//
//mpgraph:noalloc
func (s *Sample) batchOfOne() []*Sample {
	s.one[0] = s
	return s.one[:]
}

// CurrentBlock is the most recent history block (the delta base).
func (s *Sample) CurrentBlock() uint64 { return s.Blocks[len(s.Blocks)-1] }

// Dataset is a set of samples sharing tokenizers.
type Dataset struct {
	Cfg     Config
	Samples []*Sample
	Pages   *Vocab
	PCs     *Vocab
}

// DatasetOptions tunes extraction.
type DatasetOptions struct {
	// Stride subsamples the stream: a sample every Stride accesses
	// (default 1).
	Stride int
	// MaxSamples caps the dataset size (0 = unlimited).
	MaxSamples int
	// Pages / PCTokens reuse existing vocabularies (test sets must share
	// the training tokenizers); nil builds fresh ones from this stream.
	Pages *Vocab
	PCs   *Vocab
	// LabelDistance shifts the label windows LabelDistance accesses into
	// the future — the distance-prefetching training of Section 6.2, which
	// lets predictions stay ahead of demand despite inference latency.
	LabelDistance int
}

// BuildDataset extracts samples from an LLC access stream. The stream is
// what sim.Engine.Recorder captures: accesses that reached the shared LLC.
func BuildDataset(cfg Config, accesses []trace.Access, opt DatasetOptions) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opt.Stride <= 0 {
		opt.Stride = 1
	}
	T, F := cfg.HistoryT, cfg.LookForwardF
	dist := opt.LabelDistance
	if dist < 0 {
		return nil, fmt.Errorf("models: negative LabelDistance %d", dist)
	}
	if len(accesses) < T+dist+F+1 {
		return nil, fmt.Errorf("models: stream of %d accesses too short for T=%d F=%d dist=%d", len(accesses), T, F, dist)
	}

	blocks := make([]uint64, len(accesses))
	pages := make([]uint64, len(accesses))
	pcs := make([]uint64, len(accesses))
	for i, a := range accesses {
		blocks[i] = trace.Block(a.Addr)
		pages[i] = trace.Page(a.Addr)
		pcs[i] = a.PC
	}

	ds := &Dataset{Cfg: cfg, Pages: opt.Pages, PCs: opt.PCs}
	if ds.Pages == nil {
		ds.Pages = BuildVocab(pages, cfg.PageVocab)
	}
	if ds.PCs == nil {
		ds.PCs = BuildVocab(pcs, cfg.PCVocab)
	}

	for t := T; t+dist+F < len(accesses); t += opt.Stride {
		if opt.MaxSamples > 0 && len(ds.Samples) >= opt.MaxSamples {
			break
		}
		s := &Sample{
			Blocks: blocks[t-T : t],
			PCs:    pcs[t-T : t],
			Phase:  int(accesses[t-1].Phase),
		}
		cur := s.CurrentBlock()
		curPage := trace.PageOfBlock(cur)
		lo := t + dist

		// Spatial label: all future deltas within range over the
		// look-forward window.
		var deltas []int64
		for f := lo; f < lo+F; f++ {
			deltas = append(deltas, int64(blocks[f])-int64(cur))
		}
		s.DeltaBits = DeltaBitmap(cfg, deltas)

		// Temporal label: the first future page different from the current
		// one (the jump the chain prefetcher must anticipate); fall back to
		// the current page when the window never leaves it.
		s.PageTok = ds.Pages.Token(curPage)
		for f := lo; f < lo+F; f++ {
			if pages[f] != curPage {
				s.PageTok = ds.Pages.Token(pages[f])
				break
			}
		}

		// accuracy@10 ground truth (measured from the label window start).
		hi := lo + 10
		if hi > len(accesses) {
			hi = len(accesses)
		}
		s.FuturePages = pages[lo:hi]

		ds.Samples = append(ds.Samples, s)
	}
	if len(ds.Samples) == 0 {
		return nil, fmt.Errorf("models: no samples extracted")
	}
	return ds, nil
}

// FilterPhase returns the subset of samples with the given phase label,
// sharing vocabularies (the AMMA-PS training split).
func (d *Dataset) FilterPhase(phase int) *Dataset {
	out := &Dataset{Cfg: d.Cfg, Pages: d.Pages, PCs: d.PCs}
	for _, s := range d.Samples {
		if s.Phase == phase {
			out.Samples = append(out.Samples, s)
		}
	}
	return out
}

// NumPhases reports the highest phase label + 1.
func (d *Dataset) NumPhases() int {
	maxP := 0
	for _, s := range d.Samples {
		if s.Phase > maxP {
			maxP = s.Phase
		}
	}
	return maxP + 1
}
