package control

import (
	"math"

	"multitherm/internal/poly"
	"multitherm/internal/units"
)

// PID returns the three-term controller transfer function
//
//	G(s) = Kp + Ki/s + Kd·s/(τf·s + 1)
//
// with a first-order filter (time constant τf) on the derivative term,
// as any implementable PID requires. The paper considered PID and found
// "the derivative term has little benefit for this type of thermal
// control" (§4.1); this constructor plus CompareThermalControllers make
// that claim testable.
func PID(kp, ki, kd, tauF float64) TF {
	pi := PI(kp, ki)
	if kd == 0 {
		return pi
	}
	d := TF{Num: poly.New(0, kd), Den: poly.New(1, tauF)}
	return TF{
		Num: pi.Num.Mul(d.Den).Add(d.Num.Mul(pi.Den)),
		Den: pi.Den.Mul(d.Den),
	}
}

// DiscretePID is the difference-equation form of a discretized PID:
//
//	u[n] = u[n−1] + B0·e[n] + B1·e[n−1] + B2·e[n−2]
type DiscretePID struct {
	// B0, B1 and B2 are gains in scale per °C.
	B0, B1, B2 float64
	Period     units.Seconds
}

// C2DPID discretizes the PID using backward differences for both the
// integral and the (unfiltered) derivative — the standard "velocity
// form" digital PID. Sign convention matches the thermal loop: positive
// error (too hot) lowers the output.
func C2DPID(kp, ki, kd float64, T units.Seconds) DiscretePID {
	dt := float64(T)
	return DiscretePID{
		B0:     -(kp + ki*dt + kd/dt),
		B1:     kp + 2*kd/dt,
		B2:     -kd / dt,
		Period: T,
	}
}

// PIDRuntime runs a discrete PID with the same clipping rules as the PI
// runtime.
type PIDRuntime struct {
	law      DiscretePID
	limits   PILimits
	setpoint units.Celsius

	u              units.ScaleFactor
	applied        units.ScaleFactor
	prevErr, prev2 float64
	started        bool
}

// NewPIDRuntime builds a clipped PID runtime starting at full output.
func NewPIDRuntime(law DiscretePID, limits PILimits, setpoint units.Celsius) *PIDRuntime {
	return &PIDRuntime{law: law, limits: limits, setpoint: setpoint,
		u: limits.Max, applied: limits.Max}
}

// Output returns the applied actuator value.
func (p *PIDRuntime) Output() units.ScaleFactor { return p.applied }

// Step advances the controller one sample.
func (p *PIDRuntime) Step(measuredTemp units.Celsius) units.ScaleFactor {
	e := float64(measuredTemp - p.setpoint)
	if !p.started {
		p.prevErr, p.prev2 = e, e
		p.started = true
	}
	next := p.u + units.ScaleFactor(p.law.B0*e+p.law.B1*p.prevErr+p.law.B2*p.prev2)
	if next > p.limits.Max {
		next = p.limits.Max
	}
	if next < p.limits.Min {
		next = p.limits.Min
	}
	p.u = next
	if math.Abs(float64(next-p.applied)) >= float64(p.limits.MinTransition) ||
		next == p.limits.Max || next == p.limits.Min {
		p.applied = next
	}
	p.prev2 = p.prevErr
	p.prevErr = e
	return p.applied
}

// ThermalControlQuality summarizes a controller's behaviour on the
// canonical cubic-power hotspot testbench.
type ThermalControlQuality struct {
	PeakTempC    units.Celsius // worst overshoot
	SettleMS     float64       // time to stay within ±0.5 °C of setpoint
	MeanAbsErrC  units.Celsius // average |T − setpoint| after settling
	FinalScale   units.ScaleFactor
	EverEmergent bool // exceeded setpoint + margin
}

// stepFn is one controller step: temperature in, actuator out.
type stepFn func(temp units.Celsius) units.ScaleFactor

// evaluateThermalController drives a controller against a first-order
// hotspot whose equilibrium follows the cubic power law, from a cold
// start, and scores the closed-loop behaviour.
func evaluateThermalController(step stepFn, setpoint, emergency units.Celsius) ThermalControlQuality {
	const (
		tau      = 25e-3
		ambient  = 45.0
		riseFull = 52.0
		simTime  = 2.0
	)
	dt := float64(PaperSamplePeriod)
	steps := int(simTime / dt)
	temp := ambient
	tgt := float64(setpoint)
	q := ThermalControlQuality{PeakTempC: ambient}
	settled := -1.0
	var errSum float64
	var errN int
	for i := 0; i < steps; i++ {
		u := float64(step(units.Celsius(temp)))
		eq := ambient + riseFull*u*u*u
		temp += (eq - temp) * dt / tau
		t := float64(i) * dt
		if temp > float64(q.PeakTempC) {
			q.PeakTempC = units.Celsius(temp)
		}
		if temp > float64(emergency) {
			q.EverEmergent = true
		}
		if math.Abs(temp-tgt) <= 0.5 {
			if settled < 0 {
				settled = t
			}
		} else if t < simTime/2 {
			settled = -1
		}
		if t > simTime/2 {
			errSum += math.Abs(temp - tgt)
			errN++
		}
		q.FinalScale = units.ScaleFactor(u)
	}
	if settled >= 0 {
		q.SettleMS = settled * 1e3
	} else {
		q.SettleMS = math.Inf(1)
	}
	if errN > 0 {
		q.MeanAbsErrC = units.Celsius(errSum / float64(errN))
	}
	return q
}

// ComparePIvsPID runs the paper-gain PI and a PID with the given
// derivative gain on the same hotspot testbench, returning both
// qualities — the quantitative form of the paper's "derivative term has
// little benefit" observation.
func ComparePIvsPID(kd float64, setpoint, emergency units.Celsius) (pi, pid ThermalControlQuality) {
	piRT := NewPaperPIRuntime(setpoint)
	pi = evaluateThermalController(piRT.Step, setpoint, emergency)
	law := C2DPID(PaperKp, PaperKi, kd, PaperSamplePeriod)
	pidRT := NewPIDRuntime(law, DefaultPILimits(), setpoint)
	pid = evaluateThermalController(pidRT.Step, setpoint, emergency)
	return pi, pid
}
