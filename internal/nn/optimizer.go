package nn

import (
	"fmt"
	"math"
)

// Optimizer updates parameters from their accumulated gradients and zeroes
// the gradients afterwards.
type Optimizer interface {
	Step(params []*Param) error
	Name() string
}

// LRScaler is implemented by optimizers whose learning rate can be decayed
// between epochs (both SGD and Adam qualify).
type LRScaler interface {
	ScaleLR(factor float64)
}

// ScaleLR implements LRScaler.
func (s *SGD) ScaleLR(factor float64) {
	if factor > 0 {
		s.LR *= factor
	}
}

// ScaleLR implements LRScaler.
func (a *Adam) ScaleLR(factor float64) {
	if factor > 0 {
		a.LR *= factor
	}
}

// SGD is plain stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64
	vel      map[*Param]*Tensor
}

// NewSGD builds an SGD optimizer.
func NewSGD(lr, momentum float64) (*SGD, error) {
	if lr <= 0 {
		return nil, fmt.Errorf("nn: learning rate must be positive")
	}
	if momentum < 0 || momentum >= 1 {
		return nil, fmt.Errorf("nn: momentum must be in [0,1)")
	}
	return &SGD{LR: lr, Momentum: momentum, vel: map[*Param]*Tensor{}}, nil
}

// Name implements Optimizer.
func (s *SGD) Name() string { return "sgd" }

// Step implements Optimizer.
func (s *SGD) Step(params []*Param) error {
	for _, p := range params {
		if p.Frozen {
			p.Grad.Zero()
			continue
		}
		if s.Momentum > 0 {
			v, ok := s.vel[p]
			if !ok {
				v = NewTensor(p.W.Shape...)
				s.vel[p] = v
			}
			for i := range v.Data {
				v.Data[i] = s.Momentum*v.Data[i] - s.LR*p.Grad.Data[i]
				p.W.Data[i] += v.Data[i]
			}
		} else {
			for i := range p.W.Data {
				p.W.Data[i] -= s.LR * p.Grad.Data[i]
			}
		}
		p.Grad.Zero()
	}
	return nil
}

// Adam is the Adam optimizer (Kingma & Ba), the default DonkeyCar training
// optimizer.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t int
	m map[*Param]*Tensor
	v map[*Param]*Tensor
}

// NewAdam builds an Adam optimizer with the usual defaults for unset betas.
func NewAdam(lr float64) (*Adam, error) {
	if lr <= 0 {
		return nil, fmt.Errorf("nn: learning rate must be positive")
	}
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: map[*Param]*Tensor{}, v: map[*Param]*Tensor{}}, nil
}

// Name implements Optimizer.
func (a *Adam) Name() string { return "adam" }

// Step implements Optimizer.
func (a *Adam) Step(params []*Param) error {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	// Folding the bias corrections into the step size and the
	// second-moment scale leaves one division per element instead of
	// three (mathematically identical update, fewer rounding steps).
	step := a.LR / bc1
	invBC2 := 1 / bc2
	for _, p := range params {
		if p.Frozen {
			p.Grad.Zero()
			continue
		}
		m, ok := a.m[p]
		if !ok {
			m = NewTensor(p.W.Shape...)
			a.m[p] = m
			a.v[p] = NewTensor(p.W.Shape...)
		}
		adamUpdate(p.W.Data, p.Grad.Data, m.Data, a.v[p].Data, adamCoef{
			b1: a.Beta1, c1: 1 - a.Beta1, b2: a.Beta2, c2: 1 - a.Beta2,
			step: step, invBC2: invBC2, eps: a.Eps,
		})
		p.Grad.Zero()
	}
	return nil
}

// adamCoef holds one Adam step's per-element coefficients: the moment
// decays b1, b2 and their complements c1 = 1-b1, c2 = 1-b2, the
// bias-corrected step size, the second-moment scale 1/(1-b2^t), and eps.
type adamCoef struct {
	b1, c1, b2, c2, step, invBC2, eps float64
}

// adamUpdateGo is the Adam update of parameters w with gradients g and
// moments m, v, element by element. The AVX2 kernel in gemm_amd64.s
// computes each element with the same operations in the same grouping.
func adamUpdateGo(w, g, m, v []float64, k adamCoef) {
	g, m, v = g[:len(w)], m[:len(w)], v[:len(w)]
	for i, gi := range g {
		m[i] = k.b1*m[i] + k.c1*gi
		v[i] = k.b2*v[i] + k.c2*gi*gi
		w[i] -= k.step * m[i] / (math.Sqrt(v[i]*k.invBC2) + k.eps)
	}
}

// ClipGradients scales all gradients down so the global max-abs does not
// exceed limit. Returns the pre-clip max.
func ClipGradients(params []*Param, limit float64) float64 {
	maxAbs := 0.0
	for _, p := range params {
		if m := p.Grad.MaxAbs(); m > maxAbs {
			maxAbs = m
		}
	}
	if limit > 0 && maxAbs > limit {
		scale := limit / maxAbs
		for _, p := range params {
			for i := range p.Grad.Data {
				p.Grad.Data[i] *= scale
			}
		}
	}
	return maxAbs
}
