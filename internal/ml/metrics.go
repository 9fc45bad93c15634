package ml

// Accuracy is the fraction of equal entries in pred and truth.
func Accuracy[T comparable](pred, truth []T) float64 {
	if len(pred) != len(truth) || len(pred) == 0 {
		return 0
	}
	n := 0
	for i := range pred {
		if pred[i] == truth[i] {
			n++
		}
	}
	return float64(n) / float64(len(pred))
}
