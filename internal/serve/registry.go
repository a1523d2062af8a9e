package serve

import (
	"bytes"
	"fmt"
	"sort"
	"sync"

	"repro/internal/objstore"
	"repro/internal/obs"
	"repro/internal/pilot"
)

// Registry maps model names to pilots loaded from an object-store
// container, the way the hybrid placement's cloud side publishes a teacher
// and its distilled students. Each entry remembers the ETag it was loaded
// from; PollOnce re-reads the store and hot-swaps any entry whose object
// changed. Swaps are pointer-atomic under the registry lock: a batch that
// grabbed the old pilot finishes on it (in-flight batches drain on the old
// weights) while new batches see the new ones.
type Registry struct {
	store     *objstore.Store
	container string

	mu     sync.RWMutex
	models map[string]*modelEntry
	tracer *obs.Tracer

	// replicas is how many independent pilot instances each checkpoint
	// decodes into (each shard's scheduler owns one, so forward passes
	// run concurrently without sharing mutable layer state). quant, when
	// set, enables int8 inference on every loaded instance.
	replicas int
	quant    string

	metrics *obs.Registry
}

type modelEntry struct {
	object string
	etag   string
	pilots []*pilot.Pilot
	// failed is the ETag of the last object that was fetched but failed
	// to load; polls skip it until the object changes.
	failed string
}

// ModelInfo describes one registered model for the /models endpoint.
type ModelInfo struct {
	Name     string `json:"name"`
	Object   string `json:"object"`
	Kind     string `json:"kind"`
	Params   int    `json:"params"`
	ETag     string `json:"etag"`
	Replicas int    `json:"replicas,omitempty"`
	Quant    string `json:"quant,omitempty"`
}

// NewRegistry builds a registry over a store container. The container must
// already exist (the module creates ContainerModels at startup).
func NewRegistry(store *objstore.Store, container string) (*Registry, error) {
	if store == nil {
		return nil, fmt.Errorf("serve: nil object store")
	}
	if container == "" {
		return nil, fmt.Errorf("serve: empty container name")
	}
	return &Registry{store: store, container: container, models: map[string]*modelEntry{}, replicas: 1}, nil
}

// SetReplicas sets how many pilot instances each model decodes into.
// Models already registered with a different count are reloaded from the
// store so every shard has its own instance. n must be in [1, MaxReplicas].
func (r *Registry) SetReplicas(n int) error {
	if n < 1 || n > MaxReplicas {
		return fmt.Errorf("serve: replicas must be in [1, %d]", MaxReplicas)
	}
	r.mu.Lock()
	if r.replicas == n {
		r.mu.Unlock()
		return nil
	}
	r.replicas = n
	r.mu.Unlock()
	return r.reloadAll()
}

// SetQuant enables (or, with "", disables) quantized inference for every
// model the registry loads; already-registered models are reloaded. The
// mode is validated by the pilot layer, so an unsupported mode surfaces
// here before any traffic is served on it.
func (r *Registry) SetQuant(mode string) error {
	r.mu.Lock()
	if r.quant == mode {
		r.mu.Unlock()
		return nil
	}
	r.quant = mode
	r.mu.Unlock()
	return r.reloadAll()
}

// Quant reports the active quantization mode.
func (r *Registry) Quant() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.quant
}

// reloadAll re-registers every current model so a changed replica count
// or quantization mode applies to models loaded before the change.
func (r *Registry) reloadAll() error {
	r.mu.RLock()
	type target struct{ name, object string }
	targets := make([]target, 0, len(r.models))
	for n, e := range r.models {
		targets = append(targets, target{n, e.object})
	}
	r.mu.RUnlock()
	sort.Slice(targets, func(i, j int) bool { return targets[i].name < targets[j].name })
	for _, t := range targets {
		if err := r.Register(t.name, t.object); err != nil {
			return err
		}
	}
	return nil
}

// Instrument routes reload counts into reg.
func (r *Registry) Instrument(reg *obs.Registry) {
	r.mu.Lock()
	r.metrics = reg
	r.mu.Unlock()
	reg.Help("serve_reloads_total", "model checkpoints hot-reloaded from the object store")
	reg.Counter("serve_reloads_total")
}

// SetTracer attaches a tracer so RegisterCtx and PollOnceCtx can emit
// serve_register / serve_reload spans under a propagated trace. Nil
// detaches.
func (r *Registry) SetTracer(tr *obs.Tracer) {
	r.mu.Lock()
	r.tracer = tr
	r.mu.Unlock()
}

func (r *Registry) getTracer() *obs.Tracer {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.tracer
}

// childCtx picks the context downstream work should continue under: the
// local span when one was opened, otherwise the propagated one.
func childCtx(span *obs.Span, sc obs.SpanContext) obs.SpanContext {
	if span != nil {
		return span.Context()
	}
	return sc
}

// load fetches the named object once and decodes it into the configured
// number of independent pilot instances, enabling quantization on each
// when a mode is set. The store fetch continues sc (the object store
// emits its own child span when it has a tracer attached). It returns
// the fetched object's ETag with a decode or quantize error too, and ""
// when the fetch itself failed.
func (r *Registry) load(sc obs.SpanContext, object string) ([]*pilot.Pilot, string, error) {
	data, info, err := r.store.GetTraced(sc, r.container, object)
	if err != nil {
		return nil, "", fmt.Errorf("serve: fetch %s/%s: %w", r.container, object, err)
	}
	r.mu.RLock()
	n, quant := r.replicas, r.quant
	r.mu.RUnlock()
	pilots := make([]*pilot.Pilot, n)
	for i := range pilots {
		p, err := pilot.Load(bytes.NewReader(data))
		if err != nil {
			return nil, info.ETag, fmt.Errorf("serve: decode %s/%s: %w", r.container, object, err)
		}
		if quant != "" {
			if err := p.EnableQuant(quant); err != nil {
				return nil, info.ETag, fmt.Errorf("serve: quantize %s/%s: %w", r.container, object, err)
			}
		}
		pilots[i] = p
	}
	return pilots, info.ETag, nil
}

// Register names a checkpoint object and loads it immediately. Registering
// an existing name replaces it.
func (r *Registry) Register(name, object string) error {
	return r.RegisterCtx(obs.SpanContext{}, name, object)
}

// RegisterCtx is Register continuing a propagated trace: the initial model
// load appears as a "serve_register" span (with the store fetch nested
// under it) inside whatever round or request caused the registration.
func (r *Registry) RegisterCtx(sc obs.SpanContext, name, object string) error {
	if name == "" {
		return fmt.Errorf("serve: empty model name")
	}
	var span *obs.Span
	if tr := r.getTracer(); tr != nil && sc.Valid() {
		span = tr.StartWith("serve_register", sc)
		span.SetAttr("model", name)
		span.SetAttr("object", object)
	}
	pilots, etag, err := r.load(childCtx(span, sc), object)
	if err != nil {
		span.EndErr(err)
		return err
	}
	r.mu.Lock()
	r.models[name] = &modelEntry{object: object, etag: etag, pilots: pilots}
	r.mu.Unlock()
	span.End()
	return nil
}

// Pilot returns the current primary pilot for a name (shard 0).
func (r *Registry) Pilot(name string) (*pilot.Pilot, bool) {
	return r.PilotShard(name, 0)
}

// PilotShard returns the pilot instance backing one scheduler shard.
// Each shard serializes its own forward passes; distinct shards get
// distinct instances, so they may run concurrently.
func (r *Registry) PilotShard(name string, shard int) (*pilot.Pilot, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.models[name]
	if !ok || len(e.pilots) == 0 {
		return nil, false
	}
	return e.pilots[shard%len(e.pilots)], true
}

// Names lists registered model names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.models))
	for n := range r.models {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Info returns the /models row for one name.
func (r *Registry) Info(name string) (ModelInfo, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.models[name]
	if !ok {
		return ModelInfo{}, false
	}
	return ModelInfo{
		Name:     name,
		Object:   e.object,
		Kind:     string(e.pilots[0].Cfg.Kind),
		Params:   e.pilots[0].ParamCount(),
		ETag:     e.etag,
		Replicas: len(e.pilots),
		Quant:    e.pilots[0].QuantMode(),
	}, true
}

// PollOnce checks every registered object's ETag and reloads the ones that
// changed, returning how many models were swapped. A missing or corrupt
// object leaves the currently served pilot in place and reports the error
// (serving availability beats freshness). A corrupt object is fetched
// and reported once: later polls skip it until its ETag changes.
func (r *Registry) PollOnce() (int, error) {
	return r.PollOnceCtx(obs.SpanContext{})
}

// PollOnceCtx is PollOnce continuing a propagated trace: every reload
// attempt (an ETag actually changed) appears as a "serve_reload" span, so a
// federated round's checkpoint shows up in the trace flowing straight into
// the serving side hot-swapping it.
func (r *Registry) PollOnceCtx(sc obs.SpanContext) (int, error) {
	r.mu.RLock()
	type target struct{ name, object, etag, failed string }
	targets := make([]target, 0, len(r.models))
	for n, e := range r.models {
		targets = append(targets, target{n, e.object, e.etag, e.failed})
	}
	metrics := r.metrics
	tr := r.tracer
	r.mu.RUnlock()
	sort.Slice(targets, func(i, j int) bool { return targets[i].name < targets[j].name })

	reloaded := 0
	var firstErr error
	for _, t := range targets {
		info, err := r.store.Head(r.container, t.object)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("serve: poll %s: %w", t.name, err)
			}
			continue
		}
		if info.ETag == t.etag || info.ETag == t.failed {
			continue
		}
		var span *obs.Span
		if tr != nil && sc.Valid() {
			span = tr.StartWith("serve_reload", sc)
			span.SetAttr("model", t.name)
		}
		pilots, etag, err := r.load(childCtx(span, sc), t.object)
		if err != nil {
			span.EndErr(err)
			if firstErr == nil {
				firstErr = fmt.Errorf("serve: reload %s: %w", t.name, err)
			}
			if etag != "" {
				r.mu.Lock()
				if e, ok := r.models[t.name]; ok && e.object == t.object {
					e.failed = etag
				}
				r.mu.Unlock()
			}
			continue
		}
		r.mu.Lock()
		if e, ok := r.models[t.name]; ok && e.object == t.object {
			e.pilots, e.etag = pilots, etag
			reloaded++
		}
		r.mu.Unlock()
		metrics.Counter("serve_reloads_total").Inc()
		metrics.Counter("serve_reloads_total", obs.L("model", t.name)).Inc()
		span.SetAttr("etag", etag)
		span.End()
	}
	return reloaded, firstErr
}
