package nn

import (
	"math"
	"testing"

	"selsync/internal/tensor"
)

// evalInputs is a test set for f of n examples: image rows or token
// sequences, labels drawn uniformly.
func evalInputs(f Factory, n int, seed uint64) (*tensor.Matrix, []int) {
	if f.Spec.SeqLen > 0 {
		return lmBatch(seed, n)
	}
	return classifierBatch(seed, n, f.Spec.Classes)
}

// TestShardedEvalBitIdentical is the property sharded evaluation rests on: a
// row's loss and hit do not depend on the batch the row was evaluated in. For
// every zoo model (top-5 AlexNet and the per-position Transformer included)
// the per-row results of one pass over 300 examples are reproduced, to the
// bit, by a second replica evaluating them in blocks of 1, 7, 64, 256 and
// 300 examples, and Evaluate is FoldRows over them.
func TestShardedEvalBitIdentical(t *testing.T) {
	const n = 300
	for name, f := range Zoo() {
		t.Run(name, func(t *testing.T) {
			whole, blocked := f.New(42), f.Build(nil)
			blocked.Arena().Data.CopyFrom(whole.Arena().Data)
			x, labels := evalInputs(f, n, 7)
			rpe := f.Spec.RowsPerExample()
			wantLoss, wantHit := tensor.NewVector(n*rpe), tensor.NewVector(n*rpe)
			whole.EvaluateRows(x, labels, wantLoss, wantHit)

			loss, correct := whole.Evaluate(x, labels)
			foldLoss, foldCorrect := FoldRows(wantLoss, wantHit)
			if math.Float64bits(loss) != math.Float64bits(foldLoss) || correct != foldCorrect {
				t.Fatalf("Evaluate = (%v, %d), FoldRows over EvaluateRows = (%v, %d)", loss, correct, foldLoss, foldCorrect)
			}
			if correct == 0 || correct == n*rpe {
				t.Fatalf("%d of %d rows correct: the hit column carries no information", correct, n*rpe)
			}

			gotLoss, gotHit := tensor.NewVector(n*rpe), tensor.NewVector(n*rpe)
			var view tensor.Matrix
			for _, block := range []int{1, 7, 64, 256, n} {
				gotLoss.Fill(math.NaN())
				gotHit.Fill(math.NaN())
				for lo := 0; lo < n; lo += block {
					hi := min(lo+block, n)
					bx := view.View(x.Data[lo*x.Cols:hi*x.Cols], hi-lo, x.Cols)
					blocked.EvaluateRows(bx, labels[lo*rpe:hi*rpe], gotLoss[lo*rpe:hi*rpe], gotHit[lo*rpe:hi*rpe])
				}
				for i := range wantLoss {
					if math.Float64bits(gotLoss[i]) != math.Float64bits(wantLoss[i]) || gotHit[i] != wantHit[i] {
						t.Fatalf("block size %d: row %d is (%v, %v), one pass gave (%v, %v)",
							block, i, gotLoss[i], gotHit[i], wantLoss[i], wantHit[i])
					}
				}
			}
		})
	}
}
