package gossip

import (
	"hash/fnv"
	"math/bits"
	"math/rand"
	"sort"
)

// The peer table is Kademlia-shaped: every worker derives a 64-bit node
// ID from its name, measures closeness to other peers by XOR distance,
// and files each known peer into the k-bucket matching the distance's
// magnitude (bucket i holds peers whose XOR distance has its highest set
// bit at position i). The structured view matters even in a small fleet
// because selection walks buckets nearest-first — gossip partners skew
// local — while the anti-entropy pass deliberately reaches into the
// farthest occupied bucket, the long-range repair link that keeps distant
// neighborhoods from drifting apart.
//
// Tables are seeded once from the sorted member list and never mutated
// during a run, so same-seed runs see identical bucket contents; a full
// bucket rejects later insertions (counted, not silently dropped) exactly
// like Kademlia's least-recently-seen eviction refusing fresh contacts.

// NodeID is a worker's position in the XOR metric space.
type NodeID uint64

// IDOf derives a node ID from a peer name via FNV-1a (stable across
// runs and platforms — no per-process hash seeding).
func IDOf(name string) NodeID {
	h := fnv.New64a()
	h.Write([]byte(name))
	return NodeID(h.Sum64())
}

// Distance is the Kademlia XOR metric.
func (a NodeID) Distance(b NodeID) uint64 { return uint64(a ^ b) }

// bucketIndex maps a non-zero XOR distance to its k-bucket: the position
// of the highest set bit, so bucket 63 is the far half of the space and
// bucket 0 holds the single closest possible ID.
func bucketIndex(dist uint64) int { return 63 - bits.LeadingZeros64(dist) }

// Peer is one table entry.
type Peer struct {
	Name string
	ID   NodeID
}

// Table is one worker's view of the overlay.
type Table struct {
	self     Peer
	k        int
	buckets  [64][]Peer
	rejected int
}

// NewTable builds an empty table for the named worker. k is the bucket
// capacity.
func NewTable(self string, k int) *Table {
	return &Table{self: Peer{Name: self, ID: IDOf(self)}, k: k}
}

// Self returns the owning peer.
func (t *Table) Self() Peer { return t.self }

// Insert files a peer into its distance bucket. It reports false — and
// counts the rejection — for self-insertion, a duplicate, or a full
// bucket.
func (t *Table) Insert(name string) bool {
	id := IDOf(name)
	dist := t.self.ID.Distance(id)
	if dist == 0 {
		t.rejected++
		return false
	}
	b := bucketIndex(dist)
	for _, p := range t.buckets[b] {
		if p.Name == name {
			t.rejected++
			return false
		}
	}
	if len(t.buckets[b]) >= t.k {
		t.rejected++
		return false
	}
	t.buckets[b] = append(t.buckets[b], Peer{Name: name, ID: id})
	return true
}

// Seed inserts every name in sorted order (skipping self), so two
// workers with the same member list build their buckets from the same
// insertion sequence regardless of how the caller ordered the slice.
func Seed(t *Table, names []string) {
	sorted := make([]string, len(names))
	copy(sorted, names)
	sort.Strings(sorted)
	for _, n := range sorted {
		if n == t.self.Name {
			continue
		}
		t.Insert(n)
	}
}

// Len is the number of peers filed across all buckets.
func (t *Table) Len() int {
	n := 0
	for _, b := range t.buckets {
		n += len(b)
	}
	return n
}

// Rejected counts insertions refused (self, duplicate, or full bucket).
func (t *Table) Rejected() int { return t.rejected }

// Bucket returns a copy of bucket i's members, for inspection.
func (t *Table) Bucket(i int) []Peer {
	if i < 0 || i >= len(t.buckets) {
		return nil
	}
	return append([]Peer(nil), t.buckets[i]...)
}

// BucketOf returns the bucket index the named peer would file into, or
// -1 for self.
func (t *Table) BucketOf(name string) int {
	dist := t.self.ID.Distance(IDOf(name))
	if dist == 0 {
		return -1
	}
	return bucketIndex(dist)
}

// Select picks up to fanout distinct gossip partners, nearest buckets
// first: one seeded-random member per occupied bucket in ascending
// distance order, cycling back for additional members until fanout is
// met or the table is exhausted. Near peers are preferred (cheap local
// spread) but every occupied bucket gets a slot per cycle, so far
// neighborhoods are never starved.
func (t *Table) Select(rng *rand.Rand, fanout int) []Peer {
	if fanout < 1 {
		return nil
	}
	var occupied []int
	remaining := make(map[int][]Peer)
	for i, b := range t.buckets {
		if len(b) > 0 {
			occupied = append(occupied, i)
			remaining[i] = append([]Peer(nil), b...)
		}
	}
	var out []Peer
	for len(out) < fanout {
		progressed := false
		for _, i := range occupied {
			rem := remaining[i]
			if len(rem) == 0 {
				continue
			}
			j := rng.Intn(len(rem))
			out = append(out, rem[j])
			remaining[i] = append(rem[:j:j], rem[j+1:]...)
			progressed = true
			if len(out) == fanout {
				break
			}
		}
		if !progressed {
			break
		}
	}
	return out
}

// Farthest picks a seeded-random member of the farthest occupied bucket
// — the anti-entropy partner that repairs long-range drift. ok is false
// on an empty table.
func (t *Table) Farthest(rng *rand.Rand) (Peer, bool) {
	for i := len(t.buckets) - 1; i >= 0; i-- {
		if b := t.buckets[i]; len(b) > 0 {
			return b[rng.Intn(len(b))], true
		}
	}
	return Peer{}, false
}
