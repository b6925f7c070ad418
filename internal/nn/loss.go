package nn

import "math"

// Loss is a scalar training objective over batches of predictions and
// targets. Gradients are with respect to the predictions.
type Loss interface {
	// Eval returns the mean loss over the batch and dL/dpred for each
	// element (already divided by the batch size).
	Eval(pred, target []float64) (loss float64, grad []float64)
	// Name identifies the loss in logs and experiment output.
	Name() string
}

// QErrorLoss is the paper's training objective (§3.2.4): the mean q-error
// max(ŷ/y, y/ŷ), with both sides clamped to Floor to keep the ratio finite
// near zero. The true gradient -y/ŷ² diverges as ŷ→0, so per-element
// gradients are clipped to ±MaxGrad (before batch averaging); clipping
// preserves the descent direction while keeping Adam's moment estimates
// sane — the role TensorFlow's numerics played for the original authors.
type QErrorLoss struct {
	Floor   float64 // value clamp, default 1e-3
	MaxGrad float64 // per-element gradient clip, default 1e4
}

// Name implements Loss.
func (QErrorLoss) Name() string { return "q-error" }

// Eval implements Loss.
func (l QErrorLoss) Eval(pred, target []float64) (float64, []float64) {
	floor := l.Floor
	if floor <= 0 {
		floor = 1e-3
	}
	maxGrad := l.MaxGrad
	if maxGrad <= 0 {
		maxGrad = 1e4
	}
	n := float64(len(pred))
	grad := make([]float64, len(pred))
	var total float64
	for i, p := range pred {
		y := math.Max(target[i], floor)
		p = math.Max(p, floor)
		var g float64
		if p >= y {
			total += p / y
			g = 1 / y
		} else {
			total += y / p
			g = -y / (p * p)
		}
		grad[i] = clip(g, maxGrad) / n
	}
	return total / n, grad
}

// LogQErrorLoss is the q-error expressed over log-normalized predictions,
// used for cardinality models (MSCN) whose outputs live on a normalized log
// scale: for predictions and targets s ∈ [0,1] representing
// (log card − logMin)/(logMax − logMin), the linear-space q-error is
// exp(Scale·|s_pred − s_true|) with Scale = logMax − logMin. Minimizing it
// is the paper's objective computed where it is numerically stable.
type LogQErrorLoss struct {
	Scale   float64 // logMax - logMin of the target normalization
	MaxGrad float64 // per-element gradient clip, default 1e4
}

// Name implements Loss.
func (LogQErrorLoss) Name() string { return "log-q-error" }

// Eval implements Loss.
func (l LogQErrorLoss) Eval(pred, target []float64) (float64, []float64) {
	maxGrad := l.MaxGrad
	if maxGrad <= 0 {
		maxGrad = 1e4
	}
	n := float64(len(pred))
	grad := make([]float64, len(pred))
	var total float64
	for i, p := range pred {
		d := p - target[i]
		q := math.Exp(l.Scale * math.Abs(d))
		total += q
		g := l.Scale * q
		if d < 0 {
			g = -g
		}
		grad[i] = clip(g, maxGrad) / n
	}
	return total / n, grad
}

// MSELoss is the mean squared error, one of the alternative objectives the
// paper evaluated (§3.2.4).
type MSELoss struct{}

// Name implements Loss.
func (MSELoss) Name() string { return "mse" }

// Eval implements Loss.
func (MSELoss) Eval(pred, target []float64) (float64, []float64) {
	n := float64(len(pred))
	grad := make([]float64, len(pred))
	var total float64
	for i, p := range pred {
		d := p - target[i]
		total += d * d
		grad[i] = 2 * d / n
	}
	return total / n, grad
}

// MAELoss is the mean absolute error, the paper's other alternative
// objective (§3.2.4).
type MAELoss struct{}

// Name implements Loss.
func (MAELoss) Name() string { return "mae" }

// Eval implements Loss.
func (MAELoss) Eval(pred, target []float64) (float64, []float64) {
	n := float64(len(pred))
	grad := make([]float64, len(pred))
	var total float64
	for i, p := range pred {
		d := p - target[i]
		if d >= 0 {
			total += d
			grad[i] = 1 / n
		} else {
			total -= d
			grad[i] = -1 / n
		}
	}
	return total / n, grad
}

func clip(g, lim float64) float64 {
	if g > lim {
		return lim
	}
	if g < -lim {
		return -lim
	}
	return g
}
