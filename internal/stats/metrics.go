package stats

import "math"

// MAE returns the mean absolute error between predictions and truths.
// It returns 0 when the slices are empty or differ in length.
func MAE(pred, truth []float64) float64 {
	n := len(pred)
	if n == 0 || n != len(truth) {
		return 0
	}
	sum := 0.0
	for i := range pred {
		sum += math.Abs(pred[i] - truth[i])
	}
	return sum / float64(n)
}

// RMSE returns the root mean squared error between predictions and truths.
// It returns 0 when the slices are empty or differ in length.
func RMSE(pred, truth []float64) float64 {
	n := len(pred)
	if n == 0 || n != len(truth) {
		return 0
	}
	sum := 0.0
	for i := range pred {
		d := pred[i] - truth[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(n))
}

// Brier returns the Brier score for probabilistic binary forecasts:
// mean (p_i - o_i)^2 where o_i is 1 if the event occurred. Lower is better;
// 0.25 is the score of the uninformed 0.5 forecast.
// It returns 0 when the slices are empty or differ in length.
func Brier(prob []float64, occurred []bool) float64 {
	n := len(prob)
	if n == 0 || n != len(occurred) {
		return 0
	}
	sum := 0.0
	for i := range prob {
		o := 0.0
		if occurred[i] {
			o = 1
		}
		d := prob[i] - o
		sum += d * d
	}
	return sum / float64(n)
}

// Clamp01 clamps x into [0, 1]; used by probability-valued predictors.
func Clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
