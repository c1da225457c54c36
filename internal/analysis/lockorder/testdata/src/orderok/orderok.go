// Package orderok exercises the legal shapes lockorder must accept: a
// consistent Cluster-before-Shard order (declared by pragma and obeyed),
// the *Locked entry contract, sequential (non-nested) acquisition,
// per-iteration locking under a read lock, closures that escape the
// defining critical section, and locks released on every path through a
// switch, type switch, select, loop or if/else.
package orderok

import "sync"

type Cluster struct{ mu sync.RWMutex }

type Shard struct{ mu sync.Mutex }

//parabit:lockorder Cluster.mu < Shard.mu

func Consistent(c *Cluster, s *Shard) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s.mu.Lock()
	s.mu.Unlock()
}

// rebalanceLocked is entered with Cluster.mu held (the suffix
// contract); taking Shard.mu inside follows the declared order.
func (c *Cluster) rebalanceLocked(s *Shard) {
	s.mu.Lock()
	s.mu.Unlock()
}

func Rebalance(c *Cluster, s *Shard) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rebalanceLocked(s)
}

func Sequential(c *Cluster, s *Shard) {
	c.mu.Lock()
	c.mu.Unlock()
	s.mu.Lock()
	s.mu.Unlock()
}

// Each locks one shard at a time under the cluster read lock: a
// Cluster.mu -> Shard.mu edge, never Shard -> Shard.
func Each(c *Cluster, shards []*Shard) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, s := range shards {
		s.mu.Lock()
		s.mu.Unlock()
	}
}

// Handoff returns a closure that runs after the critical section
// closes; its acquisition is not nested inside the caller's hold.
func Handoff(c *Cluster) func() {
	c.mu.Lock()
	defer c.mu.Unlock()
	return func() {
		c.mu.Lock()
		c.mu.Unlock()
	}
}

// SwitchRelease drops the shard lock in both clauses of a switch with a
// default, so the cluster lock after it nests in nothing.
func SwitchRelease(c *Cluster, s *Shard, k int) {
	s.mu.Lock()
	switch k {
	case 0:
		s.mu.Unlock()
	default:
		s.mu.Unlock()
	}
	c.mu.Lock()
	c.mu.Unlock()
}

// SwitchFallPast takes the shard lock in its only clause; the fall-past
// path of a switch without a default never holds it.
func SwitchFallPast(c *Cluster, s *Shard, k int) {
	switch k {
	case 0:
		s.mu.Lock()
		s.mu.Unlock()
	}
	c.mu.Lock()
	c.mu.Unlock()
}

// TypeSwitchRelease drops the shard lock in every clause of a type
// switch.
func TypeSwitchRelease(c *Cluster, s *Shard, v any) {
	s.mu.Lock()
	switch v.(type) {
	case int:
		s.mu.Unlock()
	default:
		s.mu.Unlock()
	}
	c.mu.Lock()
	c.mu.Unlock()
}

// TrySend drops the shard lock in both clauses of a select.
func TrySend(c *Cluster, s *Shard, ch chan<- int) {
	s.mu.Lock()
	select {
	case ch <- 1:
		s.mu.Unlock()
	default:
		s.mu.Unlock()
	}
	c.mu.Lock()
	c.mu.Unlock()
}

// Drain locks one shard per iteration and unlocks it before a continue
// and before a labeled break.
func Drain(c *Cluster, shards []*Shard) {
scan:
	for i, s := range shards {
		s.mu.Lock()
		if i%2 == 0 {
			s.mu.Unlock()
			continue
		}
		if i > 8 {
			s.mu.Unlock()
			break scan
		}
		s.mu.Unlock()
	}
	c.mu.Lock()
	c.mu.Unlock()
}

// IfElseRelease returns from its else arm; the then arm falls out after
// releasing the shard.
func IfElseRelease(c *Cluster, s *Shard, ok bool) {
	s.mu.Lock()
	if ok {
		s.mu.Unlock()
	} else {
		s.mu.Unlock()
		return
	}
	c.mu.Lock()
	c.mu.Unlock()
}
