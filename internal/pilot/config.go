// Package pilot implements the six DonkeyCar autopilot models AutoLearn
// ships ("AutoLearn comes with six tested models, including linear, memory,
// 3D, categorical, inferred, and RNN"), built on the nn package: dataset
// assembly from drive records or tubs, training, frame-based inference, and
// checkpoint save/load.
package pilot

import (
	"encoding/json"
	"fmt"
)

// Kind names one of the six supported autopilot architectures.
type Kind string

// The six tested models from the paper (§3.3).
const (
	Linear      Kind = "linear"      // continuous angle + throttle heads
	Categorical Kind = "categorical" // binned angle + throttle softmax heads
	Inferred    Kind = "inferred"    // angle only; throttle inferred from it
	Memory      Kind = "memory"      // image + recent command history
	RNN         Kind = "rnn"         // frame sequence through an LSTM
	Conv3D      Kind = "3d"          // frame sequence through 3-D convolution
)

// AllKinds lists the six architectures in the order the paper names them.
func AllKinds() []Kind {
	return []Kind{Linear, Memory, Conv3D, Categorical, Inferred, RNN}
}

// Config describes a pilot's input geometry and architecture knobs.
type Config struct {
	Kind     Kind `json:"kind"`
	Width    int  `json:"width"`
	Height   int  `json:"height"`
	Channels int  `json:"channels"`

	// Categorical head sizes (DonkeyCar defaults: 15 angle, 20 throttle).
	AngleBins    int `json:"angle_bins"`
	ThrottleBins int `json:"throttle_bins"`

	// SeqLen is the frame-history length for RNN and 3D pilots.
	SeqLen int `json:"seq_len"`
	// MemoryLen is how many past (angle, throttle) pairs the memory pilot
	// appends to its image features.
	MemoryLen int `json:"memory_len"`

	// Encoder sizing.
	ConvFilters1 int     `json:"conv_filters_1"`
	ConvFilters2 int     `json:"conv_filters_2"`
	DenseUnits   int     `json:"dense_units"`
	DropoutRate  float64 `json:"dropout_rate"`
	// BatchNorm inserts Keras-style batch normalization after each conv
	// block, as DonkeyCar's stock architectures do.
	BatchNorm bool `json:"batch_norm"`

	// MaxThrottle and MinThrottle bound the inferred pilot's throttle rule.
	MaxThrottle float64 `json:"max_throttle"`
	MinThrottle float64 `json:"min_throttle"`

	Seed int64 `json:"seed"`
}

// DefaultConfig returns a small, fast configuration for the given kind and
// camera geometry, sized so CPU training in tests stays subsecond-scale.
func DefaultConfig(kind Kind, width, height, channels int) Config {
	return Config{
		Kind: kind, Width: width, Height: height, Channels: channels,
		AngleBins: 15, ThrottleBins: 20,
		SeqLen: 3, MemoryLen: 3,
		ConvFilters1: 8, ConvFilters2: 16, DenseUnits: 64,
		DropoutRate: 0.1,
		MaxThrottle: 0.55, MinThrottle: 0.22,
		Seed: 1,
	}
}

// Validate checks the configuration for the chosen kind.
func (c Config) Validate() error {
	switch c.Kind {
	case Linear, Categorical, Inferred, Memory, RNN, Conv3D:
	default:
		return fmt.Errorf("pilot: unknown kind %q", c.Kind)
	}
	if c.Width < 8 || c.Height < 8 {
		return fmt.Errorf("pilot: image %dx%d too small (min 8x8)", c.Width, c.Height)
	}
	if c.Channels != 1 && c.Channels != 3 {
		return fmt.Errorf("pilot: channels must be 1 or 3")
	}
	if c.Kind == Categorical && (c.AngleBins < 2 || c.ThrottleBins < 2) {
		return fmt.Errorf("pilot: categorical needs >= 2 bins per head")
	}
	if (c.Kind == RNN || c.Kind == Conv3D) && c.SeqLen < 2 {
		return fmt.Errorf("pilot: %s needs SeqLen >= 2", c.Kind)
	}
	if c.Kind == Memory && c.MemoryLen < 1 {
		return fmt.Errorf("pilot: memory needs MemoryLen >= 1")
	}
	if c.ConvFilters1 < 1 || c.ConvFilters2 < 1 || c.DenseUnits < 1 {
		return fmt.Errorf("pilot: encoder sizes must be positive")
	}
	if c.DropoutRate < 0 || c.DropoutRate >= 1 {
		return fmt.Errorf("pilot: dropout rate must be in [0,1)")
	}
	if c.MaxThrottle <= c.MinThrottle {
		return fmt.Errorf("pilot: MaxThrottle must exceed MinThrottle")
	}
	if w := c.weights(); w > maxWeights {
		return fmt.Errorf("pilot: %s config has %.3g weights, over the %d budget", c.Kind, w, maxWeights)
	}
	return nil
}

// maxWeights bounds the parameter count Validate accepts, so no config
// builds an absurd model, and its weight count cannot overflow. Load also
// refuses a config whose count differs from the checkpoint's stored
// tensors before building anything. 1<<25 (256 MiB of float64) fits
// E14's 21.6M-weight trunk, the repo's largest.
const maxWeights = 1 << 25

// weights counts the scalars of the architecture c describes from the
// config alone, in float64 so that no forged size can overflow it.
func (c Config) weights() float64 {
	ch, f1, f2, d := float64(c.Channels), float64(c.ConvFilters1), float64(c.ConvFilters2), float64(c.DenseUnits)
	dense := func(in, out float64) float64 { return in*out + out }
	h1, w1 := convOut(c.Height, 5, 2), convOut(c.Width, 5, 2)
	if c.Kind == Conv3D {
		flat := f1 * float64(c.SeqLen-1) * float64(h1) * float64(w1)
		return ch*f1*2*25 + f1 + dense(flat, d) + dense(d, 2)
	}
	h2, w2 := convOut(h1, 3, 2), convOut(w1, 3, 2)
	enc := ch*f1*25 + f1 + f1*f2*9 + f2 + dense(f2*float64(h2)*float64(w2), d)
	if c.BatchNorm {
		enc += 4 * (f1 + f2) // gamma, beta and the two running statistics
	}
	switch c.Kind {
	case Inferred:
		return enc + dense(d, 1)
	case Categorical:
		return enc + dense(d, float64(c.AngleBins)+float64(c.ThrottleBins))
	case Memory:
		return enc + dense(d+2*float64(c.MemoryLen), d) + dense(d, 2)
	case RNN:
		return enc + 4*d*(2*d+1) + dense(d, 2)
	}
	return enc + dense(d, 2)
}

// marshal encodes the config for checkpoint metadata.
func (c Config) marshal() (string, error) {
	b, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("pilot: encode config: %w", err)
	}
	return string(b), nil
}

// unmarshalConfig decodes checkpoint metadata back into a Config.
func unmarshalConfig(s string) (Config, error) {
	var c Config
	if err := json.Unmarshal([]byte(s), &c); err != nil {
		return Config{}, fmt.Errorf("pilot: decode config: %w", err)
	}
	return c, nil
}
