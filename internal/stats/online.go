package stats

// EWMA is an exponentially weighted moving average with smoothing factor
// alpha in (0,1]: higher alpha weights recent observations more. The zero
// value is unusable; construct with NewEWMA.
type EWMA struct {
	alpha float64
	value float64
	init  bool
}

// NewEWMA returns an EWMA with the given smoothing factor, clamped to (0,1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 {
		alpha = 0.01
	}
	if alpha > 1 {
		alpha = 1
	}
	return &EWMA{alpha: alpha}
}

// Add incorporates one observation. The first observation seeds the average.
func (e *EWMA) Add(x float64) {
	if !e.init {
		e.value = x
		e.init = true
		return
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
}

// Value returns the current average, 0 before any observation.
func (e *EWMA) Value() float64 { return e.value }

// Initialized reports whether at least one observation has been added.
func (e *EWMA) Initialized() bool { return e.init }
