package nn

import (
	"math"

	"selsync/internal/tensor"
)

// SoftmaxCrossEntropy couples a row-wise softmax with the negative
// log-likelihood loss. Rows of the logits matrix are independent
// predictions (a classification sample, or one sequence position of the
// language model); labels carries one class index per row.
type SoftmaxCrossEntropy struct{}

// Loss returns the mean cross-entropy over rows, the number of rows whose
// argmax equals the label, and the gradient of the mean loss with respect
// to the logits: (softmax − onehot)/rows.
func (l SoftmaxCrossEntropy) Loss(logits *tensor.Matrix, labels []int) (loss float64, correct int, grad *tensor.Matrix) {
	grad = tensor.NewMatrix(logits.Rows, logits.Cols)
	loss, correct = l.LossInto(grad, logits, labels)
	return loss, correct, grad
}

// LossInto is Loss writing the logit gradient into a caller-owned matrix
// (shape rows × cols of the logits), the allocation-free form the training
// step uses.
func (SoftmaxCrossEntropy) LossInto(grad, logits *tensor.Matrix, labels []int) (loss float64, correct int) {
	if len(labels) != logits.Rows {
		panic("nn: label count must equal logit rows")
	}
	if grad.Rows != logits.Rows || grad.Cols != logits.Cols {
		panic("nn: loss gradient shape mismatch")
	}
	n := logits.Rows
	invN := 1 / float64(n)
	for i := 0; i < n; i++ {
		row := logits.Row(i)
		label := labels[i]
		if label < 0 || label >= logits.Cols {
			panic("nn: label out of range")
		}
		// max-shifted softmax
		maxLogit := row.Max()
		var sum float64
		g := grad.Row(i)
		for j, v := range row {
			e := math.Exp(v - maxLogit)
			g[j] = e
			sum += e
		}
		logSum := math.Log(sum)
		loss += -(row[label] - maxLogit - logSum)
		for j := range g {
			g[j] = g[j] / sum * invN
		}
		g[label] -= invN
		if row.ArgMax() == label {
			correct++
		}
	}
	return loss * invN, correct
}

// EvalRows is the evaluation pass one row at a time: rowLoss[i] receives row
// i's cross-entropy and rowHit[i] 1 when its label is among the k largest
// logits (k ≤ 1: is the argmax), else 0. A row's two numbers depend on that
// row of the logits alone, so a set of rows may be evaluated in any batches,
// by any number of replicas, and folded afterwards (FoldRows) to the bits a
// single pass over all of them yields.
func (SoftmaxCrossEntropy) EvalRows(logits *tensor.Matrix, labels []int, k int, rowLoss, rowHit tensor.Vector) {
	if len(labels) != logits.Rows {
		panic("nn: label count must equal logit rows")
	}
	if len(rowLoss) != logits.Rows || len(rowHit) != logits.Rows {
		panic("nn: per-row result length must equal logit rows")
	}
	for i := range labels {
		row := logits.Row(i)
		label := labels[i]
		maxLogit := row.Max()
		var sum float64
		for _, v := range row {
			sum += math.Exp(v - maxLogit)
		}
		rowLoss[i] = -(row[label] - maxLogit - math.Log(sum))
		var hit bool
		if k > 1 {
			hit = inTopK(row, label, k)
		} else {
			hit = row.ArgMax() == label
		}
		if hit {
			rowHit[i] = 1
		} else {
			rowHit[i] = 0
		}
	}
}

// FoldRows folds per-row results into what one evaluation pass over those
// rows reports: the mean loss, summed in row order, and the hit count.
func FoldRows(rowLoss, rowHit tensor.Vector) (loss float64, correct int) {
	for i, l := range rowLoss {
		loss += l
		if rowHit[i] != 0 {
			correct++
		}
	}
	return loss / float64(len(rowLoss)), correct
}

// EvalLoss computes loss and correct count (top-1) without building the
// gradient, for evaluation passes.
func (l SoftmaxCrossEntropy) EvalLoss(logits *tensor.Matrix, labels []int) (loss float64, correct int) {
	rowLoss, rowHit := tensor.NewVector(logits.Rows), tensor.NewVector(logits.Rows)
	l.EvalRows(logits, labels, 1, rowLoss, rowHit)
	return FoldRows(rowLoss, rowHit)
}

// TopKCorrect counts rows whose label appears among the k largest logits —
// the paper reports top-5 accuracy for its ImageNet workload (AlexNet).
func TopKCorrect(logits *tensor.Matrix, labels []int, k int) int {
	if k < 1 {
		panic("nn: TopKCorrect needs k >= 1")
	}
	var correct int
	for i := 0; i < logits.Rows; i++ {
		if inTopK(logits.Row(i), labels[i], k) {
			correct++
		}
	}
	return correct
}

// inTopK reports whether label is among the k largest entries of row: fewer
// than k entries beat it, ties resolving in favour of the lower index
// (matching a stable sort by descending logit).
func inTopK(row tensor.Vector, label, k int) bool {
	target := row[label]
	greater := 0
	for j, v := range row {
		if v > target || (v == target && j < label) {
			greater++
		}
	}
	return greater < k
}
