package pilot

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/tub"
)

// Sample is one training or inference example in pilot-neutral form: a
// window of frames (length 1 for single-frame pilots, SeqLen for sequence
// pilots), the recent command history for the memory pilot, and the labels.
type Sample struct {
	Frames   []*sim.Frame // most recent frame last
	PrevCmds [][2]float64 // (angle, throttle) pairs, most recent last
	Angle    float64
	Throttle float64
}

// pixelLUT maps a byte to its [0,1] float64 value, replacing a per-pixel
// division in frameToPlanar; the 2KB table stays cache-resident.
var pixelLUT = func() (t [256]float64) {
	for i := range t {
		t[i] = float64(i) / 255
	}
	return
}()

// frameToPlanar converts a frame to planar [C][H][W] float64 in [0,1],
// the layout the convolution layers expect. Pix is interleaved [H][W][C],
// so the grayscale case is a straight table-mapped copy.
func frameToPlanar(f *sim.Frame, dst []float64) {
	if f.C == 1 {
		for i, p := range f.Pix {
			dst[i] = pixelLUT[p]
		}
		return
	}
	hw := f.W * f.H
	for i := 0; i < hw; i++ {
		base := i * f.C
		for c := 0; c < f.C; c++ {
			dst[c*hw+i] = pixelLUT[f.Pix[base+c]]
		}
	}
}

// framesNeeded returns how many consecutive frames one sample consumes.
func (c Config) framesNeeded() int {
	if c.Kind == RNN || c.Kind == Conv3D {
		return c.SeqLen
	}
	return 1
}

// SamplesFromRecords converts a contiguous drive into pilot samples,
// building frame windows and command history as the kind requires. Records
// must be in capture order.
func SamplesFromRecords(cfg Config, recs []sim.Record) ([]Sample, error) {
	need := cfg.framesNeeded()
	if len(recs) < need {
		return nil, fmt.Errorf("pilot: %d records, need at least %d", len(recs), need)
	}
	var out []Sample
	for i := need - 1; i < len(recs); i++ {
		s := Sample{Angle: recs[i].Steering, Throttle: recs[i].Throttle}
		for j := i - need + 1; j <= i; j++ {
			if recs[j].Frame == nil {
				return nil, fmt.Errorf("pilot: record %d has no frame", j)
			}
			s.Frames = append(s.Frames, recs[j].Frame)
		}
		if cfg.Kind == Memory {
			for j := i - cfg.MemoryLen; j < i; j++ {
				if j < 0 {
					s.PrevCmds = append(s.PrevCmds, [2]float64{0, 0})
				} else {
					s.PrevCmds = append(s.PrevCmds, [2]float64{recs[j].Steering, recs[j].Throttle})
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// SamplesFromTub loads a cleaned tub from disk into pilot samples. Frames
// are decoded with the configured channel count.
func SamplesFromTub(cfg Config, t *tub.Tub) ([]Sample, error) {
	stored, err := t.ReadAll()
	if err != nil {
		return nil, err
	}
	recs := make([]sim.Record, 0, len(stored))
	for _, sr := range stored {
		f, err := t.LoadFrame(sr.Image, cfg.Channels)
		if err != nil {
			return nil, err
		}
		if f.W != cfg.Width || f.H != cfg.Height {
			return nil, fmt.Errorf("pilot: tub image %dx%d, config wants %dx%d",
				f.W, f.H, cfg.Width, cfg.Height)
		}
		recs = append(recs, sim.Record{Frame: f, Steering: sr.Angle, Throttle: sr.Throttle})
	}
	return SamplesFromRecords(cfg, recs)
}

// checkSample validates one sample against the config.
func (c Config) checkSample(s Sample) error {
	if len(s.Frames) != c.framesNeeded() {
		return fmt.Errorf("pilot: sample has %d frames, kind %s needs %d",
			len(s.Frames), c.Kind, c.framesNeeded())
	}
	for _, f := range s.Frames {
		if f.W != c.Width || f.H != c.Height || f.C != c.Channels {
			return fmt.Errorf("pilot: frame %dx%dx%d does not match config %dx%dx%d",
				f.W, f.H, f.C, c.Width, c.Height, c.Channels)
		}
	}
	if c.Kind == Memory && len(s.PrevCmds) != c.MemoryLen {
		return fmt.Errorf("pilot: sample has %d prev commands, need %d", len(s.PrevCmds), c.MemoryLen)
	}
	return nil
}

// buildX encodes samples into the model's input tensor.
func (c Config) buildX(samples []Sample) (*nn.Tensor, error) {
	n := len(samples)
	iv := c.Channels * c.Height * c.Width
	switch c.Kind {
	case Linear, Categorical, Inferred:
		x := nn.NewTensor(n, c.Channels, c.Height, c.Width)
		for i, s := range samples {
			frameToPlanar(s.Frames[0], x.Data[i*iv:(i+1)*iv])
		}
		return x, nil
	case Memory:
		tv := 2 * c.MemoryLen
		x := nn.NewTensor(n, iv+tv)
		for i, s := range samples {
			frameToPlanar(s.Frames[0], x.Data[i*(iv+tv):i*(iv+tv)+iv])
			for j, cmd := range s.PrevCmds {
				x.Data[i*(iv+tv)+iv+2*j] = cmd[0]
				x.Data[i*(iv+tv)+iv+2*j+1] = cmd[1]
			}
		}
		return x, nil
	case RNN:
		x := nn.NewTensor(n, c.SeqLen, iv)
		for i, s := range samples {
			for t, f := range s.Frames {
				frameToPlanar(f, x.Data[(i*c.SeqLen+t)*iv:(i*c.SeqLen+t+1)*iv])
			}
		}
		return x, nil
	case Conv3D:
		x := nn.NewTensor(n, c.Channels, c.SeqLen, c.Height, c.Width)
		hw := c.Height * c.Width
		tmp := make([]float64, iv)
		for i, s := range samples {
			for t, f := range s.Frames {
				frameToPlanar(f, tmp)
				for ch := 0; ch < c.Channels; ch++ {
					dst := ((i*c.Channels+ch)*c.SeqLen + t) * hw
					copy(x.Data[dst:dst+hw], tmp[ch*hw:(ch+1)*hw])
				}
			}
		}
		return x, nil
	}
	return nil, fmt.Errorf("pilot: unknown kind %q", c.Kind)
}

// buildY encodes labels into the model's target tensor.
func (c Config) buildY(samples []Sample) (*nn.Tensor, error) {
	n := len(samples)
	switch c.Kind {
	case Linear, Memory, RNN, Conv3D:
		y := nn.NewTensor(n, 2)
		for i, s := range samples {
			y.Data[i*2] = s.Angle
			y.Data[i*2+1] = s.Throttle
		}
		return y, nil
	case Inferred:
		y := nn.NewTensor(n, 1)
		for i, s := range samples {
			y.Data[i] = s.Angle
		}
		return y, nil
	case Categorical:
		d := c.AngleBins + c.ThrottleBins
		y := nn.NewTensor(n, d)
		for i, s := range samples {
			y.Data[i*d+nn.Bin(s.Angle, -1, 1, c.AngleBins)] = 1
			y.Data[i*d+c.AngleBins+nn.Bin(s.Throttle, 0, 1, c.ThrottleBins)] = 1
		}
		return y, nil
	}
	return nil, fmt.Errorf("pilot: unknown kind %q", c.Kind)
}

// BuildDataset validates samples and encodes them into a training dataset.
func (c Config) BuildDataset(samples []Sample) (nn.Dataset, error) {
	if len(samples) == 0 {
		return nn.Dataset{}, fmt.Errorf("pilot: no samples")
	}
	for i, s := range samples {
		if err := c.checkSample(s); err != nil {
			return nn.Dataset{}, fmt.Errorf("sample %d: %w", i, err)
		}
	}
	x, err := c.buildX(samples)
	if err != nil {
		return nn.Dataset{}, err
	}
	y, err := c.buildY(samples)
	if err != nil {
		return nn.Dataset{}, err
	}
	return nn.Dataset{X: x, Y: y}, nil
}

// DatasetCache holds one sample set's encoding for the config it was
// last built for, so a run that trains or scores the same samples every
// round encodes them once. The zero value is empty; one cache serves
// one sample set.
type DatasetCache struct {
	cfg  Config
	data nn.Dataset
}

// Get returns samples encoded for cfg, building the dataset on first
// use and again only when cfg differs from the config it was built for.
func (c *DatasetCache) Get(cfg Config, samples []Sample) (nn.Dataset, error) {
	if c.data.X == nil || c.cfg != cfg {
		data, err := cfg.BuildDataset(samples)
		if err != nil {
			return nn.Dataset{}, err
		}
		c.cfg, c.data = cfg, data
	}
	return c.data, nil
}

// AugmentFlip doubles a sample set with the classic DonkeyCar
// augmentation: every frame is mirrored horizontally and its steering
// (and any steering history) negated. Throttle is unchanged. The returned
// slice contains the originals followed by the mirrored copies.
func AugmentFlip(samples []Sample) []Sample {
	out := make([]Sample, 0, 2*len(samples))
	out = append(out, samples...)
	for _, s := range samples {
		m := Sample{Angle: -s.Angle, Throttle: s.Throttle}
		for _, f := range s.Frames {
			m.Frames = append(m.Frames, f.FlipH())
		}
		for _, c := range s.PrevCmds {
			m.PrevCmds = append(m.PrevCmds, [2]float64{-c[0], c[1]})
		}
		out = append(out, m)
	}
	return out
}
