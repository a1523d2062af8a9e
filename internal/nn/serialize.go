package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"slices"
)

// savedParam is the on-wire form of one parameter tensor.
type savedParam struct {
	Name  string
	Shape []int
	Data  []float64
}

// checkpoint is the on-wire container. Meta carries caller-defined model
// configuration (architecture name, bins, sequence length, ...).
type checkpoint struct {
	Magic  string
	Meta   map[string]string
	Params []savedParam
}

const checkpointMagic = "autolearn-nn-v1"

// SaveParams serializes model parameters plus caller metadata. Pilots store
// their architecture configuration in meta and rebuild the layer stack on
// load, so only weights travel.
func SaveParams(w io.Writer, params []*Param, meta map[string]string) error {
	cp := checkpoint{Magic: checkpointMagic, Meta: meta}
	for _, p := range params {
		cp.Params = append(cp.Params, savedParam{Name: p.Name, Shape: p.W.Shape, Data: p.W.Data})
	}
	if err := gob.NewEncoder(w).Encode(cp); err != nil {
		return fmt.Errorf("nn: save: %w", err)
	}
	return nil
}

// Checkpoint is a decoded checkpoint stream: the caller's metadata and
// the saved parameter tensors, ready to restore into a model.
type Checkpoint struct {
	Meta   map[string]string
	params []savedParam
}

// ReadCheckpoint decodes a checkpoint stream once, so a caller can read
// the metadata, check the stored sizes and build the matching model
// before restoring the weights into it.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var cp checkpoint
	if err := gob.NewDecoder(r).Decode(&cp); err != nil {
		return nil, fmt.Errorf("nn: load: %w", err)
	}
	if cp.Magic != checkpointMagic {
		return nil, fmt.Errorf("nn: not a checkpoint (magic %q)", cp.Magic)
	}
	return &Checkpoint{Meta: cp.Meta, params: cp.Params}, nil
}

// Weights returns the number of scalars the checkpoint stores.
func (c *Checkpoint) Weights() int {
	n := 0
	for _, sp := range c.params {
		n += len(sp.Data)
	}
	return n
}

// Restore copies the saved tensors into params, which must match them
// in count and shape (i.e. the model must already be built with the
// right architecture), and zeroes the gradients.
func (c *Checkpoint) Restore(params []*Param) error {
	if len(c.params) != len(params) {
		return fmt.Errorf("nn: checkpoint has %d params, model has %d", len(c.params), len(params))
	}
	for i, sp := range c.params {
		p := params[i]
		if !slices.Equal(sp.Shape, p.W.Shape) {
			return fmt.Errorf("nn: param %d (%s) shape %v != model %v", i, sp.Name, sp.Shape, p.W.Shape)
		}
		if len(sp.Data) != p.W.Size() {
			return fmt.Errorf("nn: param %d (%s) size %d != model %d", i, sp.Name, len(sp.Data), p.W.Size())
		}
		copy(p.W.Data, sp.Data)
		p.Grad.Zero()
	}
	return nil
}

// LoadMeta reads the metadata of a checkpoint stream. The stream is
// consumed; callers wanting weights too should use ReadCheckpoint.
func LoadMeta(r io.Reader) (map[string]string, error) {
	c, err := ReadCheckpoint(r)
	if err != nil {
		return nil, err
	}
	return c.Meta, nil
}

// LoadParams decodes a checkpoint into the given parameters (see
// Checkpoint.Restore). It returns the checkpoint metadata.
func LoadParams(r io.Reader, params []*Param) (map[string]string, error) {
	c, err := ReadCheckpoint(r)
	if err != nil {
		return nil, err
	}
	if err := c.Restore(params); err != nil {
		return nil, err
	}
	return c.Meta, nil
}
