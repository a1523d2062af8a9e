package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Plan is one deterministic fault campaign: the object-store and device
// silence schedules a scenario installs, the preemption point, the retry
// policy and its virtual clock, and the counters the run accrues. A nil
// *Plan everywhere means "no faults" and costs a nil check.
type Plan struct {
	Seed  int64
	Clock *Clock
	Retry Policy

	// HeartbeatEvery and SweepEvery pace the scripted edge fleet: how
	// often connected devices check in and how often the control plane
	// sweeps for silent ones.
	HeartbeatEvery time.Duration
	SweepEvery     time.Duration

	// PreemptAfterFrac preempts the training lease once the run's
	// simulated GPU time crosses this fraction of the total (0 disables).
	PreemptAfterFrac float64

	silence      map[string][]Window // scripted device -> silence windows
	storeEvery   int                 // fail every Nth object-store attempt (0 disables)
	storeWindows []Window            // store faults are armed only inside these windows

	mu        sync.Mutex
	rng       *rand.Rand // backoff jitter; draws happen in call order
	storeOps  int
	injected  map[string]int // kind -> count (mirrors faults_injected_total)
	attempts  int
	fallbacks int

	metrics *obs.Registry
}

// Horizon is how far past the plan's start fault schedules may extend;
// pipelines run well inside it.
const Horizon = 4 * time.Hour

// NewPlan returns an empty plan anchored at start: the default retry
// policy and fleet pacing, jitter seeded from seed, and no schedules.
// Install schedules with AddSilenceWindow and AddStoreWindows before the
// run starts; link effects live in a scenario's shape table, not here.
func NewPlan(seed int64, start time.Time) *Plan {
	return &Plan{
		Seed:           seed,
		Clock:          NewClock(start),
		Retry:          DefaultPolicy(),
		HeartbeatEvery: 15 * time.Second,
		SweepEvery:     45 * time.Second,
		silence:        map[string][]Window{},
		rng:            rand.New(rand.NewSource(seed ^ 0x5eed)),
		injected:       map[string]int{},
	}
}

// AddSilenceWindow scripts a silence window for a device's heartbeat
// daemon. Call before the run starts; windows are kept in insertion
// order and the device is listed by ScriptDevices.
func (p *Plan) AddSilenceWindow(device string, w Window) {
	p.silence[device] = append(p.silence[device], w)
}

// AddStoreWindows arms object-store fault injection inside the given
// windows: while the clock is in one every everyth attempt fails with a
// transient error; outside them the store is healthy and attempts are
// not counted.
func (p *Plan) AddStoreWindows(every int, ws ...Window) {
	if every < 1 {
		every = 1
	}
	p.storeEvery = every
	p.storeWindows = append(p.storeWindows, ws...)
}

// Instrument routes the plan's counters into reg and pre-registers the
// series so scrapes before the first fault still see them. The plan also
// keeps private tallies, so Summary works without a registry.
func (p *Plan) Instrument(reg *obs.Registry) {
	p.mu.Lock()
	p.metrics = reg
	p.mu.Unlock()
	reg.Help("faults_injected_total", "faults injected by the active profile, by kind")
	reg.Help("retry_attempts_total", "operation attempts made under the retry policy, by op")
	reg.Help("hybrid_fallbacks_total", "hybrid-inference frames that fell back to the on-device pilot")
	reg.Counter("faults_injected_total")
	reg.Counter("retry_attempts_total")
	reg.Counter("hybrid_fallbacks_total")
}

// RecordInjection counts one injected fault of the given kind.
func (p *Plan) RecordInjection(kind string) {
	p.mu.Lock()
	p.injected[kind]++
	reg := p.metrics
	p.mu.Unlock()
	reg.Counter("faults_injected_total").Inc()
	reg.Counter("faults_injected_total", obs.L("kind", kind)).Inc()
}

// RecordAttempt counts one attempt of op under the retry policy.
func (p *Plan) RecordAttempt(op string) {
	p.mu.Lock()
	p.attempts++
	reg := p.metrics
	p.mu.Unlock()
	reg.Counter("retry_attempts_total").Inc()
	reg.Counter("retry_attempts_total", obs.L("op", op)).Inc()
}

// RecordFallback counts one hybrid-inference frame served by the
// on-device pilot because the cloud missed its deadline.
func (p *Plan) RecordFallback() {
	p.mu.Lock()
	p.fallbacks++
	reg := p.metrics
	p.mu.Unlock()
	reg.Counter("hybrid_fallbacks_total").Inc()
}

// Summary is the plan's cumulative tally, for CLI reporting.
type Summary struct {
	Injected  map[string]int
	Attempts  int
	Fallbacks int
}

// Summary snapshots the counters accrued so far.
func (p *Plan) Summary() Summary {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Summary{Injected: make(map[string]int, len(p.injected)),
		Attempts: p.attempts, Fallbacks: p.fallbacks}
	for k, v := range p.injected {
		s.Injected[k] = v
	}
	return s
}

// String renders the summary as one line with kinds sorted.
func (s Summary) String() string {
	var kinds []string
	total := 0
	for k, v := range s.Injected {
		kinds = append(kinds, fmt.Sprintf("%s %d", k, v))
		total += v
	}
	sort.Strings(kinds)
	detail := ""
	if len(kinds) > 0 {
		detail = " (" + strings.Join(kinds, ", ") + ")"
	}
	return fmt.Sprintf("injected %d%s, retry attempts %d, hybrid fallbacks %d",
		total, detail, s.Attempts, s.Fallbacks)
}

// StoreFault is the object-store injection hook: every storeEvery-th
// armed attempt (counting from the first) fails with a transient error,
// so a single retry always clears it. op is informational.
func (p *Plan) StoreFault(op string) error {
	now := p.Clock.Now()
	p.mu.Lock()
	if !windowsContain(p.storeWindows, now) {
		p.mu.Unlock()
		return nil
	}
	n := p.storeOps
	p.storeOps++
	every := p.storeEvery
	p.mu.Unlock()
	if every <= 0 || n%every != 0 {
		return nil
	}
	p.RecordInjection("objstore")
	return &Error{Kind: "objstore", Op: op}
}

func windowsContain(ws []Window, t time.Time) bool {
	for _, w := range ws {
		if w.contains(t) {
			return true
		}
	}
	return false
}

// ScriptDevices lists the scripted edge devices, sorted.
func (p *Plan) ScriptDevices() []string {
	out := make([]string, 0, len(p.silence))
	for name := range p.silence {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DeviceSilent reports whether the scripted device's daemon is in a
// scheduled silence window at t.
func (p *Plan) DeviceSilent(device string, t time.Time) bool {
	for _, w := range p.silence[device] {
		if w.contains(t) {
			return true
		}
	}
	return false
}

// randFloat draws backoff jitter from the plan's seeded RNG.
func (p *Plan) randFloat() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rng.Float64()
}
