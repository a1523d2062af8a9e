package scenario

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"repro/internal/faults"
)

// Profiles lists the named fault profiles Profile accepts.
func Profiles() []string {
	return []string{"lossy-wan", "flaky-objstore", "heartbeat-gap", "preempt", "chaos"}
}

// Profile expands a named fault profile, from a seed, into a generated
// scenario plus the training-lease preemption fraction (0 = none), which
// the DSL has no phase for. The same name and seed always produce the
// same scenario:
//
//   - lossy-wan: alternating partition and degrade phases on campus-wan;
//   - flaky-objstore: every third object-store attempt fails;
//   - heartbeat-gap: silence phases for devices chaos-pi-1 and chaos-pi-2;
//   - preempt: no phases, a preemption fraction in [0.35, 0.65);
//   - chaos: all of the above.
func Profile(name string, seed int64) (*Scenario, float64, error) {
	if !slices.Contains(Profiles(), name) {
		return nil, 0, fmt.Errorf("scenario: unknown fault profile %q (have %s)",
			name, strings.Join(Profiles(), ", "))
	}
	s := &Scenario{Name: name, Seed: seed}
	gen := rand.New(rand.NewSource(seed))
	all := name == "chaos"
	if all || name == "lossy-wan" {
		genLinkPhases(s, gen)
	}
	if all || name == "flaky-objstore" {
		s.Phases = append(s.Phases, Phase{Start: 0, End: faults.Horizon, Kind: Objstore, Every: 3})
	}
	if all || name == "heartbeat-gap" {
		genSilencePhases(s, gen)
	}
	frac := 0.0
	if all || name == "preempt" {
		frac = 0.35 + 0.3*gen.Float64()
	}
	return s, frac, nil
}

// ProfileRuntime compiles a named fault profile into a runtime anchored
// at epoch, with the profile's preemption fraction set on its plan.
func ProfileRuntime(name string, seed int64, epoch time.Time) (*Runtime, error) {
	s, frac, err := Profile(name, seed)
	if err != nil {
		return nil, err
	}
	rt, err := NewRuntime(s, seed, epoch)
	if err != nil {
		return nil, err
	}
	rt.plan.PreemptAfterFrac = frac
	return rt, nil
}

// addWindow appends a phase clipped to the fault horizon; a phase that
// starts at or past it is dropped (its random draws still happened, so
// later schedules keep their instants).
func (s *Scenario) addWindow(ph Phase) {
	if ph.Start >= faults.Horizon {
		return
	}
	ph.End = min(ph.End, faults.Horizon)
	s.Phases = append(s.Phases, ph)
}

// genLinkPhases scatters alternating partition and degrade phases over
// the campus WAN. The cycle period stays under ~30s so any half-minute of
// traffic crosses at least one partition, and every partition is shorter
// than the retry policy's cumulative backoff, so retries always recover.
func genLinkPhases(s *Scenario, gen *rand.Rand) {
	const link = "campus-wan"
	s.Links = append(s.Links, LinkDecl{Name: link})
	t := time.Duration(2+gen.Intn(4)) * time.Second
	for t < faults.Horizon {
		down := time.Duration(4+gen.Intn(7)) * time.Second // 4-10s partition
		s.addWindow(Phase{Start: t, End: t + down, Kind: Partition, Link: link})
		t += down
		slow := time.Duration(3+gen.Intn(5)) * time.Second // 3-7s degraded tail
		s.addWindow(Phase{Start: t, End: t + slow, Kind: Degrade, Link: link, Factor: 2 + 2*gen.Float64()})
		t += slow
		t += time.Duration(8+gen.Intn(9)) * time.Second // 8-16s healthy
	}
}

// genSilencePhases scripts two BYOD devices whose daemons go silent for
// longer than the heartbeat window (batteries dying mid-session), then
// come back and re-onboard.
func genSilencePhases(s *Scenario, gen *rand.Rand) {
	for i := 0; i < 2; i++ {
		device := fmt.Sprintf("chaos-pi-%d", i+1)
		t := time.Duration(45+gen.Intn(76)) * time.Second // first gap 45-120s in
		for t < faults.Horizon {
			gap := time.Duration(120+gen.Intn(121)) * time.Second // 2-4 min silent
			s.addWindow(Phase{Start: t, End: t + gap, Kind: Silence, Device: device})
			t += gap
			t += time.Duration(120+gen.Intn(181)) * time.Second // 2-5 min healthy
		}
	}
}
