package netem_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/netem"
	"repro/internal/scenario"
)

var profileStart = time.Date(2023, 9, 1, 9, 0, 0, 0, time.UTC)

// lossyWAN compiles the lossy-wan profile and attaches it to a fresh net.
func lossyWAN(t *testing.T, seed, netSeed int64) (*netem.Net, *faults.Plan) {
	t.Helper()
	rt, err := scenario.ProfileRuntime("lossy-wan", seed, profileStart)
	if err != nil {
		t.Fatal(err)
	}
	n := netem.NewNet(netSeed)
	rt.Attach(n)
	return n, rt.Plan()
}

// A net attached to a lossy-wan profile must surface partitions as typed
// retryable link_partition errors and degrade phases as slower (never
// failed) traffic, while staying healthy between phases.
func TestNetConsultsFaultSchedule(t *testing.T) {
	n, plan := lossyWAN(t, 42, 1)

	// Walk the first 30 minutes of the schedule one second at a time; the
	// lossy-wan cycle is short enough that this crosses many partition
	// and degrade phases.
	var failed, ok, slow int
	for i := 0; i < 1800; i++ {
		plan.Clock.Advance(time.Second)
		tr, err := n.Transfer(netem.CampusWAN, 1500)
		switch {
		case err == nil:
			ok++
			if tr.Duration > 30*time.Millisecond { // healthy: 20ms ± 2ms jitter
				slow++
			}
		case faults.Retryable(err):
			failed++
		default:
			t.Fatalf("partition produced a non-retryable error: %v", err)
		}
	}
	if failed == 0 {
		t.Error("no partitions hit in 30 minutes of lossy-wan")
	}
	if slow == 0 {
		t.Error("no degraded transfers in 30 minutes of lossy-wan")
	}
	if ok == slow {
		t.Error("link never healthy in 30 minutes of lossy-wan")
	}
	if sum := plan.Summary(); sum.Injected["link_partition"] != failed {
		t.Errorf("link_partition injections = %v, want one per refused transfer (%d)", sum.Injected, failed)
	}

	// Only the scheduled link is affected.
	if _, err := n.Transfer(netem.Loopback, 1500); err != nil {
		t.Errorf("unscheduled link failed: %v", err)
	}
}

// TestConcurrentTransfersWithFaults repeats the concurrent hammer with a
// lossy-wan profile attached, so shape-table lookups race against the
// transfer path too. Transfers that start inside a partition fail
// retryably; the test only demands data-race freedom and byte accounting
// for successes.
func TestConcurrentTransfersWithFaults(t *testing.T) {
	n, plan := lossyWAN(t, 13, 13)

	var wg sync.WaitGroup
	var mu sync.Mutex
	var okBytes int64
	var okCount, failed int
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				tr, err := n.Transfer(netem.CampusWAN, 16<<10)
				mu.Lock()
				if err != nil {
					failed++ // partition: retryable by design
				} else {
					okBytes += tr.Bytes
					okCount++
				}
				mu.Unlock()
				plan.Clock.Advance(tr.Duration)
			}
		}()
	}
	wg.Wait()
	bytes, transfers, _ := n.Stats()
	if bytes != okBytes || transfers != okCount {
		t.Fatalf("stats (%d bytes, %d transfers) disagree with successes (%d, %d)",
			bytes, transfers, okBytes, okCount)
	}
	if got := plan.Summary().Injected["link_partition"]; got != failed {
		t.Fatalf("link_partition injections = %d, want %d", got, failed)
	}
}
