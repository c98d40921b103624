package stats

import "testing"

func TestMAEAndRMSE(t *testing.T) {
	pred := []float64{1, 2, 3}
	truth := []float64{2, 2, 5}
	if got := MAE(pred, truth); !almostEqual(got, 1, 1e-12) {
		t.Errorf("MAE = %v, want 1", got)
	}
	// Squared errors: 1, 0, 4 -> mean 5/3.
	if got := RMSE(pred, truth); !almostEqual(got*got, 5.0/3.0, 1e-9) {
		t.Errorf("RMSE^2 = %v, want 5/3", got*got)
	}
	if MAE(pred, truth[:2]) != 0 || RMSE(nil, nil) != 0 {
		t.Error("mismatched/empty inputs should yield 0")
	}
}

func TestBrier(t *testing.T) {
	// Perfect confident forecasts score 0.
	if got := Brier([]float64{1, 0}, []bool{true, false}); got != 0 {
		t.Errorf("perfect Brier = %v, want 0", got)
	}
	// Uninformed 0.5 forecasts score 0.25.
	if got := Brier([]float64{0.5, 0.5}, []bool{true, false}); !almostEqual(got, 0.25, 1e-12) {
		t.Errorf("coin-flip Brier = %v, want 0.25", got)
	}
	// Confidently wrong scores 1.
	if got := Brier([]float64{0, 1}, []bool{true, false}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("wrong Brier = %v, want 1", got)
	}
	if Brier([]float64{0.5}, nil) != 0 {
		t.Error("mismatched input should yield 0")
	}
}

func TestClamp01(t *testing.T) {
	tests := []struct{ in, want float64 }{
		{-1, 0}, {0, 0}, {0.5, 0.5}, {1, 1}, {2, 1},
	}
	for _, tt := range tests {
		if got := Clamp01(tt.in); got != tt.want {
			t.Errorf("Clamp01(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}
