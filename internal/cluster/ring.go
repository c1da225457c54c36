package cluster

import (
	"slices"
	"sort"
)

// The placement ring is a consistent-hash ring with virtual nodes: each
// shard projects virtualNodes points onto a 64-bit circle, and a key
// belongs to the first shard points clockwise of its hash. Adding or
// removing a shard moves only the keys between its points and their
// predecessors — roughly 1/N of the space — which is what keeps
// rebalancing proportional instead of total.

// ringPoint is one virtual node: a position on the circle owned by a shard.
type ringPoint struct {
	hash  uint64
	shard int
}

type ring struct {
	vnodes int
	points []ringPoint // sorted by hash, ties broken by shard id
}

func newRing(vnodes int) *ring { return &ring{vnodes: vnodes} }

// hash64 is the splitmix64 finalizer: a full-avalanche mix, so the small
// sequential integers columns and vnodes use spread evenly on the circle.
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// vnodeHash positions shard s's i'th virtual node on the circle. The
// double hash domain-separates vnode points from key hashes — with a
// single round, shard 0's vnode i would land exactly on key i's hash and
// ties would glue those keys to shard 0 forever.
func vnodeHash(shard, i int) uint64 {
	return hash64(hash64(uint64(shard)+1) + uint64(i))
}

func (r *ring) add(shard int) {
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: vnodeHash(shard, i), shard: shard})
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].shard < r.points[b].shard
	})
}

func (r *ring) remove(shard int) {
	kept := r.points[:0]
	for _, p := range r.points {
		if p.shard != shard {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// lookup walks clockwise from the key's hash and appends up to n
// distinct shards to dst — the key's replica set in preference order.
func (r *ring) lookup(key uint64, n int, dst []int) []int {
	if len(r.points) == 0 || n < 1 {
		return dst
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	base := len(dst)
	for i := 0; i < len(r.points) && len(dst)-base < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !slices.Contains(dst[base:], p.shard) {
			dst = append(dst, p.shard)
		}
	}
	return dst
}
