package scenario

import (
	"reflect"
	"testing"
	"time"
)

func TestUnknownProfile(t *testing.T) {
	if _, _, err := Profile("nope", 1); err == nil {
		t.Fatal("want error for unknown profile")
	}
	if _, err := ProfileRuntime("nope", 1, tableEpoch); err == nil {
		t.Fatal("want runtime error for unknown profile")
	}
}

// Regression: the last generated window of a schedule used to run past
// the 4h horizon the parser enforces, so a Formatted lossy-wan profile
// did not parse back. Every profile must round-trip to the identical AST.
func TestProfilesRoundTrip(t *testing.T) {
	for _, name := range Profiles() {
		for _, seed := range []int64{1, 7, 11, 42, 99} {
			s, frac, err := Profile(name, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			s2, err := ParseString(Format(s))
			if err != nil {
				t.Fatalf("%s seed %d: formatted profile does not parse: %v", name, seed, err)
			}
			if !reflect.DeepEqual(s, s2) {
				t.Fatalf("%s seed %d: round trip changed the AST", name, seed)
			}
			wantPreempt := name == "preempt" || name == "chaos"
			if (frac != 0) != wantPreempt || (wantPreempt && (frac < 0.35 || frac >= 0.65)) {
				t.Fatalf("%s seed %d: preemption fraction %v", name, seed, frac)
			}
		}
	}
}

func TestLossyWANScheduleHitsOutages(t *testing.T) {
	s, _, err := Profile("lossy-wan", 42)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.LinkNames(); !reflect.DeepEqual(got, []string{"campus-wan"}) {
		t.Fatalf("declared links = %v, want only campus-wan", got)
	}
	partitions, degrades := 0, 0
	for _, ph := range s.Phases {
		if got := ph.TargetLinks(s); !reflect.DeepEqual(got, []string{"campus-wan"}) {
			t.Fatalf("phase %+v targets %v, want only campus-wan", ph, got)
		}
		if ph.Start >= time.Minute {
			continue
		}
		switch ph.Kind {
		case Partition:
			partitions++
		case Degrade:
			degrades++
		default:
			t.Fatalf("unexpected %s phase in lossy-wan", ph.Kind)
		}
	}
	if partitions == 0 || degrades == 0 {
		t.Fatalf("the first 60s must hold partition and degrade phases; got %d and %d",
			partitions, degrades)
	}
	rt, err := ProfileRuntime("lossy-wan", 42, tableEpoch)
	if err != nil {
		t.Fatal(err)
	}
	for off := time.Duration(0); off < time.Minute; off += time.Second {
		if sh, _ := rt.Table().ShapeAt("lab-lan", tableEpoch.Add(off)); !sh.Zero() {
			t.Fatalf("unscheduled link shaped at %v: %+v", off, sh)
		}
	}
}

func TestHeartbeatGapSchedule(t *testing.T) {
	rt, err := ProfileRuntime("heartbeat-gap", 11, tableEpoch)
	if err != nil {
		t.Fatal(err)
	}
	p := rt.Plan()
	devs := p.ScriptDevices()
	if !reflect.DeepEqual(devs, []string{"chaos-pi-1", "chaos-pi-2"}) {
		t.Fatalf("ScriptDevices = %v", devs)
	}
	for _, d := range devs {
		silentAt := time.Time{}
		for off := time.Duration(0); off < 10*time.Minute; off += 5 * time.Second {
			if p.DeviceSilent(d, tableEpoch.Add(off)) {
				silentAt = tableEpoch.Add(off)
				break
			}
		}
		if silentAt.IsZero() {
			t.Fatalf("%s never goes silent in the first 10 minutes", d)
		}
		if p.DeviceSilent(d, tableEpoch) {
			t.Fatalf("%s must start healthy", d)
		}
	}
}
