// Package monitor implements Pragma's system characterization and
// abstraction component (§3.1): resource sensors over the simulated
// cluster, an NWS-style forecaster suite for predictive analysis of system
// behavior, and the relative-capacity calculator that feeds the
// system-sensitive partitioner (Fig. 4).
//
// The forecasting design follows the Network Weather Service (Wolski,
// HPDC'97), which the paper builds on: several cheap predictors run in
// parallel over each measurement series, and a meta-forecaster answers with
// the predictor that has accumulated the lowest error so far.
package monitor

import "slices"

// Forecaster predicts the next value of a measurement series.
type Forecaster interface {
	// Name identifies the forecasting method.
	Name() string
	// Update feeds one observation.
	Update(v float64)
	// Predict returns the forecast for the next observation. Before any
	// observation it returns 0.
	Predict() float64
}

// mean is a sliding mean's prediction over the non-empty xs.
func mean(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// median is a sliding median's prediction over the non-empty xs, at most
// 8 long to sort without allocating.
func median(xs []float64) float64 {
	n := len(xs)
	var scratch [8]float64
	tmp := append(scratch[:0], xs...)
	slices.Sort(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

// ar1 is the AR(1) prediction over the non-empty xs: the last value
// while it holds fewer than three observations.
func ar1(xs []float64) float64 {
	n := len(xs)
	if n < 3 {
		return xs[n-1]
	}
	mu := mean(xs)
	var num, den float64
	for i := 1; i < n; i++ {
		num += (xs[i] - mu) * (xs[i-1] - mu)
	}
	for _, v := range xs {
		den += (v - mu) * (v - mu)
	}
	rho := 0.0
	if den > 1e-12 {
		rho = num / den
	}
	if rho > 1 {
		rho = 1
	}
	if rho < -1 {
		rho = -1
	}
	return mu + rho*(xs[n-1]-mu)
}

// metaWindow is the longest window in Meta's pool.
const metaWindow = 32

// metaPool names Meta's pool members in rank order: of two with equal
// error, the earlier predicts. They are the last value, the running mean,
// sliding means over 8 and 32, a sliding median over 8, exponential
// smoothing s' = a*v + (1-a)*s at the gains of metaGains, and an AR(1)
// fit x' = mean + rho*(x - mean) over 32.
var metaPool = [...]string{
	"last-value", "running-mean", "sliding-mean-8", "sliding-mean-32",
	"sliding-median-8", "exp-smoothing-0.30", "exp-smoothing-0.70", "ar1-32",
}

var metaGains = [...]float64{0.3, 0.7}

// Meta is the NWS meta-forecaster: it runs a fixed pool of forecasters
// (metaPool) and predicts with whichever has the lowest accumulated
// squared error. Every windowed member reads a suffix of one 32-sample
// window, so the exported fields are the whole state: plain values of a
// fixed size, which encoding/binary round-trips exactly. The zero value
// is ready to use.
type Meta struct {
	// N counts the observations.
	N int64
	// Window holds the last metaWindow observations, oldest first, in its
	// last min(N, metaWindow) slots.
	Window [metaWindow]float64
	// Sum is the running mean's sum of observations.
	Sum float64
	// Smooth holds the exponential smoothers' states, one per gain.
	Smooth [len(metaGains)]float64
	// SqErr accumulates each pool member's squared one-step-ahead error.
	SqErr [len(metaPool)]float64
}

// NewMeta builds a meta-forecaster over the standard NWS-style pool.
func NewMeta() *Meta { return &Meta{} }

// Name implements Forecaster.
func (m *Meta) Name() string { return "nws-meta" }

// Update implements Forecaster: it first charges each pool member the error
// of its pending prediction, then feeds the observation to all members.
func (m *Meta) Update(v float64) {
	if m.N > 0 {
		for i := range m.SqErr {
			d := m.member(i) - v
			m.SqErr[i] += d * d
		}
	}
	copy(m.Window[:], m.Window[1:])
	m.Window[metaWindow-1] = v
	m.Sum += v
	for i, a := range metaGains {
		if m.N == 0 {
			m.Smooth[i] = v
		} else {
			m.Smooth[i] = a*v + (1-a)*m.Smooth[i]
		}
	}
	m.N++
}

// member returns pool member i's prediction.
func (m *Meta) member(i int) float64 {
	w := m.Window[metaWindow-min(m.N, metaWindow):]
	if len(w) == 0 {
		return 0
	}
	switch metaPool[i] {
	case "last-value":
		return w[len(w)-1]
	case "running-mean":
		return m.Sum / float64(m.N)
	case "sliding-mean-8":
		return mean(w[max(len(w)-8, 0):])
	case "sliding-mean-32":
		return mean(w)
	case "sliding-median-8":
		return median(w[max(len(w)-8, 0):])
	case "exp-smoothing-0.30":
		return m.Smooth[0]
	case "exp-smoothing-0.70":
		return m.Smooth[1]
	default: // ar1-32
		return ar1(w)
	}
}

// Predict implements Forecaster.
func (m *Meta) Predict() float64 { return m.member(m.bestIndex()) }

// Best names the currently winning pool member.
func (m *Meta) Best() string { return metaPool[m.bestIndex()] }

// MSE returns each pool member's mean squared prediction error so far,
// keyed by forecaster name.
func (m *Meta) MSE() map[string]float64 {
	out := make(map[string]float64, len(metaPool))
	div := float64(m.N - 1)
	if div < 1 {
		div = 1
	}
	for i, name := range metaPool {
		out[name] = m.SqErr[i] / div
	}
	return out
}

func (m *Meta) bestIndex() int {
	best := 0
	for i := 1; i < len(m.SqErr); i++ {
		if m.SqErr[i] < m.SqErr[best] {
			best = i
		}
	}
	return best
}

var _ Forecaster = (*Meta)(nil)

// MSEOf evaluates a forecaster over a series: it returns the mean squared
// one-step-ahead prediction error. The series must be non-empty for the
// result to be meaningful.
func MSEOf(f Forecaster, series []float64) float64 {
	if len(series) < 2 {
		return 0
	}
	var sum float64
	f.Update(series[0])
	for _, v := range series[1:] {
		d := f.Predict() - v
		sum += d * d
		f.Update(v)
	}
	return sum / float64(len(series)-1)
}
