package netem

import (
	"sync"
	"testing"
)

// TestConcurrentTransfersOneLink hammers a single link from many
// goroutines at once — the federated coordinator, the serving path, and
// chaos playback all share one Net — and checks under -race that the
// seeded RNG and stats stay consistent: every transfer succeeds, every
// byte is accounted, and no duration goes non-positive.
func TestConcurrentTransfersOneLink(t *testing.T) {
	n := NewNet(11)
	const (
		goroutines = 8
		perG       = 50
		size       = int64(32 << 10)
	)
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tr, err := n.Transfer(CampusWAN, size)
				if err != nil {
					errs[g] = err
					return
				}
				if tr.Bytes != size || tr.Duration <= 0 {
					errs[g] = errTransferShape(tr)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	bytes, transfers, _ := n.Stats()
	if want := int64(goroutines * perG * int(size)); bytes != want {
		t.Fatalf("stats counted %d bytes, want %d", bytes, want)
	}
	if want := goroutines * perG; transfers != want {
		t.Fatalf("stats counted %d transfers, want %d", transfers, want)
	}
}

type errTransferShape TransferResult

func (e errTransferShape) Error() string { return "bad transfer result" }
