// Package model defines the architectural model of §2.1 of the paper: the
// uniform network transit rate τ, the message-packaging rate π, the
// result-size ratio δ, and the derived per-work-unit constants
//
//	A = π + τ          (server packaging + transit, outbound)
//	B = 1 + (1+δ)π     (remote unpack + compute + repackage, per unit speed)
//
// Time is normalized so the slowest computer needs 1 time unit per work
// unit (ρ₁ = 1); τ and π are expressed in those same units. Computers are
// architecturally "balanced": a computer of speed ρ packages and unpackages
// at rate πρ per work unit, so its busy time per received unit is Bρ.
package model

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// Params collects the environment parameters of the model. The zero value
// is invalid; use one of the preset constructors or fill the fields and call
// Validate.
type Params struct {
	// Tau is the network transit rate: time units to move one unit of work
	// between any two computers (pipelined rate; latency is ignored, per
	// §2.1). Must be positive.
	Tau float64 `json:"tau"`
	// Pi is the packaging rate of a speed-1 computer: time units to
	// packetize/compress/encode one unit of work. Unpackaging costs the
	// same (footnote 4). Must be non-negative.
	Pi float64 `json:"pi"`
	// Delta is the output-to-input ratio: each unit of work produces
	// δ ≤ 1 units of results. Must be in (0, 1].
	Delta float64 `json:"delta"`
}

// Table1 returns the parameter values of Table 1 of the paper, used for all
// its numeric illustrations: τ = 1 µs, π = 10 µs, δ = 1 per work unit, with
// the work unit taking 1 second on the slowest computer.
func Table1() Params {
	return Params{Tau: 1e-6, Pi: 10e-6, Delta: 1}
}

// Table1Fine returns the Table 1 values normalized for the "finer tasks"
// row of Table 2 (0.1 s per task): τ and π grow tenfold relative to the
// work-unit time.
func Table1Fine() Params {
	return Params{Tau: 1e-5, Pi: 10e-5, Delta: 1}
}

// Figs34 returns the parameters used to regenerate Figures 3 and 4. The
// paper raises τ to "200 µsec" to make the figures legible; reproducing the
// published 16-step phase structure requires the normalized value τ = 0.2
// (i.e. tasks of ≈1 ms), which puts the Theorem 4 threshold Aτδ/B² ≈ 0.040
// strictly between ψ·1·(1/16) and ψ·1·(1/8) for ψ = 1/2. See DESIGN.md §5.
func Figs34() Params {
	return Params{Tau: 0.2, Pi: 10e-6, Delta: 1}
}

// A returns π + τ, the per-unit cost of preparing and transmitting work.
func (p Params) A() float64 { return p.Pi + p.Tau }

// B returns 1 + (1+δ)π, the per-unit busy time of a speed-1 computer
// (unpack + compute + package results).
func (p Params) B() float64 { return 1 + (1+p.Delta)*p.Pi }

// TauDelta returns τδ, the per-unit transit cost of returning results.
func (p Params) TauDelta() float64 { return p.Tau * p.Delta }

// Theorem4Threshold returns K = Aτδ/B². Under a multiplicative speedup by
// ψ applied to one of {Cᵢ, Cⱼ} with ρᵢ > ρⱼ, speeding the faster computer
// wins iff ψρᵢρⱼ > K (Theorem 4).
func (p Params) Theorem4Threshold() float64 {
	b := p.B()
	return p.A() * p.TauDelta() / (b * b)
}

// Validate reports whether the parameters are admissible for the model:
// τ > 0, π ≥ 0, 0 < δ ≤ 1, and the standing assumption of §4.1 that
// τδ ≤ A ≤ B.
func (p Params) Validate() error {
	switch {
	case !(p.Tau > 0):
		return fmt.Errorf("model: transit rate τ = %v must be positive", p.Tau)
	case !(p.Pi >= 0) || math.IsInf(p.Pi, 1):
		return fmt.Errorf("model: packaging rate π = %v must be finite and non-negative", p.Pi)
	case !(p.Delta > 0) || p.Delta > 1:
		return fmt.Errorf("model: result ratio δ = %v must be in (0,1]", p.Delta)
	}
	if p.TauDelta() > p.A() {
		return fmt.Errorf("model: τδ = %v exceeds A = %v, violating §4.1's assumption τδ ≤ A ≤ B", p.TauDelta(), p.A())
	}
	if p.A() > p.B() {
		return fmt.Errorf("model: A = %v exceeds B = %v, violating §4.1's assumption τδ ≤ A ≤ B", p.A(), p.B())
	}
	return nil
}

// String renders the parameters with their derived constants.
func (p Params) String() string {
	return fmt.Sprintf("Params{τ=%g, π=%g, δ=%g; A=%g, B=%g, τδ=%g}",
		p.Tau, p.Pi, p.Delta, p.A(), p.B(), p.TauDelta())
}

// MarshalJSON emits the raw parameters plus derived constants, so dumped
// experiment configurations are self-describing.
func (p Params) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Tau      float64 `json:"tau"`
		Pi       float64 `json:"pi"`
		Delta    float64 `json:"delta"`
		A        float64 `json:"a"`
		B        float64 `json:"b"`
		TauDelta float64 `json:"tau_delta"`
	}{p.Tau, p.Pi, p.Delta, p.A(), p.B(), p.TauDelta()})
}

// UnmarshalJSON accepts either the raw three parameters or the
// self-describing form produced by MarshalJSON (derived fields are ignored).
func (p *Params) UnmarshalJSON(data []byte) error {
	var raw struct {
		Tau   *float64 `json:"tau"`
		Pi    *float64 `json:"pi"`
		Delta *float64 `json:"delta"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if raw.Tau == nil || raw.Pi == nil || raw.Delta == nil {
		return errors.New("model: params JSON must include tau, pi and delta")
	}
	p.Tau, p.Pi, p.Delta = *raw.Tau, *raw.Pi, *raw.Delta
	return nil
}
