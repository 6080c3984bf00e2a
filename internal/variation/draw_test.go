package variation

import "testing"

// TestBatchMatchesScratch pins the shared-draw contract: every lane of
// the batched sampler must reproduce the scalar scratch walk of the same
// chip draw for draw, seed included, at every level of the hierarchy.
func TestBatchMatchesScratch(t *testing.T) {
	s := NewSampler(Nassif45nm(), PaperFactors(), 2006)
	sc := s.NewScratch()
	bs := s.NewScratch()
	ids := []int{0, 1, 2, 7, 24}
	lane := func(b *Batch, l int) Draw {
		d := Draw{seed: b.Seeds[l]}
		for p := range b.Col {
			d.Values[p] = b.Col[p][l]
		}
		return d
	}
	var chips, way, blk, row, mm Batch
	bs.ChipBatch(ids, &chips)
	for w := 0; w < 4; w++ {
		bs.WayBatch(&chips, w, &way)
		bs.BlocksBatch(&way, 3, 2, &blk)
		bs.RowsBatch(&blk, 9, &row)
		bs.ChildrenBatch(&blk, 1.0, 9000, 1, &mm)
		for l, id := range ids {
			chipD := sc.Chip(id)
			if got := lane(&chips, l); got != chipD {
				t.Fatalf("chip %d: root draws differ\nscalar: %v\nbatch:  %v", id, chipD, got)
			}
			wayD := sc.Way(&chipD, w)
			if lane(&way, l) != wayD {
				t.Fatalf("chip %d way %d: draws differ", id, w)
			}
			for j := 0; j < 2; j++ {
				blkD := sc.Block(&wayD, int64(3+j))
				if lane(&blk, 2*l+j) != blkD {
					t.Fatalf("chip %d way %d block %d: draws differ", id, w, j)
				}
				if lane(&row, 2*l+j) != sc.Row(&blkD, 9) {
					t.Fatalf("chip %d way %d block %d row: draws differ", id, w, j)
				}
				if lane(&mm, 2*l+j) != sc.Child(&blkD, 1.0, 9000) {
					t.Fatalf("chip %d way %d block %d full-range child: draws differ", id, w, j)
				}
			}
		}
	}
}

// TestScratchZeroAlloc verifies drawing through a warm scratch never
// touches the heap.
func TestScratchZeroAlloc(t *testing.T) {
	s := NewSampler(Nassif45nm(), PaperFactors(), 2006)
	sc := s.NewScratch()
	allocs := testing.AllocsPerRun(100, func() {
		chip := sc.Chip(11)
		way := sc.Way(&chip, 3)
		blk := sc.Block(&way, 2)
		sc.Row(&blk, 4)
	})
	if allocs != 0 {
		t.Errorf("scratch draws allocate %.1f times per run, want 0", allocs)
	}
}
