package plan

import (
	"sync/atomic"

	"parabit/internal/latch"
)

// Key identifies a sub-expression's value in the result cache: the
// 64-bit structural hash of its canonical form (the operation over the
// sorted hashes of its arguments, down to the leaf pages) and that form
// itself. The hash picks the slot; a lookup that finds a slot compares
// the shape as well, so two structures that share a hash cost a miss,
// never each other's page. Expr.Key spells the same canonical form as a
// string, and Plan.KeyString renders a step's.
type Key struct {
	Hash uint64
	// Shape is the canonical form in prefix order: a leaf is 0 and its
	// page; a node is a non-zero tag carrying its operation and arity,
	// then its arguments' shapes in hash order.
	Shape []uint64
}

// nodeTag is the shape tag of an op node with n arguments.
func nodeTag(op latch.Op, n int) uint64 { return 1<<63 | uint64(op)<<32 | uint64(n) }

// mix is the splitmix64 finalizer: a full-avalanche 64-bit mix.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Hash salts keep a leaf's hash apart from a node's.
const (
	leafSalt = 0x6c656166
	nodeSalt = 0x6e6f6465
)

// leafHash is the structural hash of a page read. A node's hash starts
// from mix(op ^ nodeSalt) and folds in its arguments' hashes in sorted
// order, h = mix(h ^ a), so every argument order of a commutative node
// hashes alike (see Compiler.internNode).
func leafHash(lpn uint64) uint64 { return keyHash(mix(lpn ^ leafSalt)) }

// collideKeys makes every structural hash one value, for tests that drive
// the collision paths of the compiler's memo and the result cache.
var collideKeys atomic.Bool

func keyHash(h uint64) uint64 {
	if collideKeys.Load() {
		return 0
	}
	return h
}

// CollideKeysForTest makes every key hash to one value while on: each
// compiler memo and cache lookup then meets other structures under its
// hash and must miss on them. Results stay exact; only sharing is lost.
// Tests only; it affects every compiler and cache in the process.
func CollideKeysForTest(on bool) { collideKeys.Store(on) }
