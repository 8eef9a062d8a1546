package control

import (
	"fmt"
	"math"

	"multitherm/internal/poly"
	"multitherm/internal/units"
)

// DiscretizeMethod selects the continuous→discrete conversion rule used
// by C2D, mirroring MATLAB's c2d method argument.
type DiscretizeMethod int

const (
	// ForwardEuler approximates s ≈ (z−1)/T with the integral advanced
	// from the previous error sample. Applied to the paper's PI gains
	// (Kp=0.0107, Ki=248.5, T = 100000 cycles at 3.6 GHz), it yields
	// exactly the published control law
	//
	//	u[n] = u[n−1] − 0.0107·e[n] + 0.003796·e[n−1].
	ForwardEuler DiscretizeMethod = iota
	// BackwardEuler approximates s ≈ (z−1)/(T·z).
	BackwardEuler
	// Tustin is the bilinear (trapezoidal) rule s ≈ (2/T)·(z−1)/(z+1).
	Tustin
)

func (m DiscretizeMethod) String() string {
	switch m {
	case ForwardEuler:
		return "forward-euler"
	case BackwardEuler:
		return "backward-euler"
	case Tustin:
		return "tustin"
	default:
		return fmt.Sprintf("DiscretizeMethod(%d)", int(m))
	}
}

// DiscretePI is the difference-equation form of a discretized PI
// controller:
//
//	u[n] = u[n−1] + B0·e[n] + B1·e[n−1]
//
// For thermal control the error is e = T_measured − T_target, so both
// response coefficients come out negative-leaning: hotter than target
// drives the actuator (frequency scale) down.
type DiscretePI struct {
	// B0 and B1 are gains in scale per °C (Rao et al.'s gain-units caveat).
	B0, B1 float64       // coefficients on e[n] and e[n−1]
	Period units.Seconds // sample period
	Method DiscretizeMethod
}

// C2DPI converts the continuous PI controller u = −(Kp·e + Ki·∫e) to a
// discrete difference equation with sample period T seconds. The sign
// convention matches the paper: positive error (too hot) lowers u.
func C2DPI(kp, ki float64, T units.Seconds, method DiscretizeMethod) DiscretePI {
	d := DiscretePI{Period: T, Method: method}
	dt := float64(T)
	switch method {
	case ForwardEuler:
		// I[n] = I[n−1] + T·e[n−1]
		// u[n] − u[n−1] = −Kp(e[n]−e[n−1]) − Ki·T·e[n−1]
		d.B0 = -kp
		d.B1 = kp - ki*dt
	case BackwardEuler:
		// I[n] = I[n−1] + T·e[n]
		d.B0 = -(kp + ki*dt)
		d.B1 = kp
	case Tustin:
		// I[n] = I[n−1] + T/2·(e[n]+e[n−1])
		d.B0 = -(kp + ki*dt/2)
		d.B1 = kp - ki*dt/2
	default:
		panic(fmt.Sprintf("control: unknown discretization method %d", method))
	}
	return d
}

// ZTransferFunction returns the controller's z-domain transfer function
// U(z)/E(z) = (B0·z + B1) / (z − 1), as numerator/denominator
// polynomials in z (lowest degree first).
func (d DiscretePI) ZTransferFunction() (num, den poly.Poly) {
	return poly.New(d.B1, d.B0), poly.New(-1, 1)
}

// ClosedLoopStableZ reports whether the discrete closed loop formed with
// a plant discretized as z-domain polynomials pNum/pDen is stable, i.e.
// all closed-loop poles lie strictly inside the unit circle. This is the
// discrete-time counterpart of the paper's left-half-plane criterion.
func (d DiscretePI) ClosedLoopStableZ(pNum, pDen poly.Poly) bool {
	cNum, cDen := d.ZTransferFunction()
	// Closed loop denominator: cDen·pDen + cNum·pNum. The thermal loop
	// is negative feedback with the sign folded into B0/B1, so the
	// characteristic polynomial uses the raw product (hotter → slower →
	// cooler is already encoded as negative gain).
	char := cDen.Mul(pDen).Sub(cNum.Mul(pNum))
	return maxMagnitude(char.Roots()) < 1
}

// DiscretizePlantZOH converts the first-order plant K/(τs+1) to its
// exact zero-order-hold discrete equivalent
//
//	H(z) = K(1−a) / (z − a),  a = e^(−T/τ)
func DiscretizePlantZOH(gain float64, tau, T units.Seconds) (num, den poly.Poly) {
	a := math.Exp(-float64(T / tau))
	return poly.New(gain * (1 - a)), poly.New(-a, 1)
}
