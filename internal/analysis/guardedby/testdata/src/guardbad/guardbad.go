// Package guardbad violates `// guarded by` annotations in every way
// the analyzer reports: plain unguarded reads and writes, writes under
// RLock, the post-Unlock read from the PR 7 ReadColumn race, unguarded
// *Locked calls, a malformed annotation, and locks released or never
// taken on some path through a switch, type switch, select, loop or
// if/else.
package guardbad

import "sync"

// Store is the sibling-annotation shape: fields guarded by their own
// struct's mutex.
type Store struct {
	mu   sync.RWMutex
	cols map[string][]uint64 // guarded by mu
	n    int                 // guarded by mu
}

// bumpLocked requires s.mu held — the suffix contract.
func (s *Store) bumpLocked() { s.n++ }

func PlainRead(s *Store) int {
	return s.n // want `read of n guarded by Store\.mu without holding Store\.mu`
}

func PlainWrite(s *Store, k string, v []uint64) {
	s.cols[k] = v // want `write to cols guarded by Store\.mu without holding Store\.mu`
}

func WriteUnderRLock(s *Store, k string) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	delete(s.cols, k) // want `write to cols guarded by Store\.mu while it is only read-locked \(RLock\); writes need Store\.Lock`
}

func SnapshotAfterUnlock(s *Store) int {
	s.mu.RLock()
	total := len(s.cols)
	s.mu.RUnlock()
	return total + s.n // want `read of n guarded by Store\.mu after the guard was released at line \d+; snapshot it inside the critical section`
}

func CallLockedUnlocked(s *Store) {
	s.bumpLocked() // want `call to bumpLocked guarded by Store\.mu without holding Store\.mu`
}

func GoLocked(s *Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go s.bumpLocked() // want `go statement calls bumpLocked guarded by Store\.mu without holding Store\.mu`
}

// Dir mirrors the cluster directory: entry instances are owned by the
// directory's lock, not one of their own — the qualified annotation.
type Dir struct {
	mu   sync.RWMutex
	cols map[string]*entry // guarded by mu
}

type entry struct {
	size     int      // guarded by Dir.mu
	replicas []uint64 // guarded by Dir.mu
}

// ReadColumn reproduces the PR 7 race: the entry pointer is loaded under
// RLock but its size is read after RUnlock, racing a concurrent writer.
func ReadColumn(d *Dir, key string) int {
	d.mu.RLock()
	e := d.cols[key]
	d.mu.RUnlock()
	if e == nil {
		return 0
	}
	return e.size // want `read of size guarded by Dir\.mu after the guard was released at line \d+; snapshot it inside the critical section`
}

func WriteSizeUnderRLock(d *Dir, key string, n int) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if e := d.cols[key]; e != nil {
		e.size = n // want `write to size guarded by Dir\.mu while it is only read-locked \(RLock\); writes need Dir\.Lock`
	}
}

// Weird names a guard that does not exist on the struct.
type Weird struct {
	mu sync.Mutex
	x  int // guarded by missing // want `bad guarded-by annotation "missing": Weird has no sync\.Mutex/RWMutex field "missing"`
}

// SwitchDefaultUnlocks unlocks in the default clause and falls out of the
// switch.
func SwitchDefaultUnlocks(s *Store, k int) int {
	s.mu.Lock()
	switch k {
	case 0:
		s.n++
	default:
		s.mu.Unlock()
	}
	return s.n // want `read of n guarded by Store\.mu after the guard was released at line \d+; snapshot it inside the critical section`
}

// SwitchNoDefault locks in every clause, but with no default the switch
// can also fall past them all.
func SwitchNoDefault(s *Store, k int) {
	switch k {
	case 0:
		s.mu.Lock()
	case 1:
		s.mu.Lock()
	}
	s.n++ // want `write to n guarded by Store\.mu without holding Store\.mu`
}

// TypeSwitchUnlocks unlocks in one type-switch clause without leaving.
func TypeSwitchUnlocks(s *Store, v any) int {
	s.mu.Lock()
	switch v.(type) {
	case int:
		s.mu.Unlock()
	case string:
	}
	return s.n // want `read of n guarded by Store\.mu after the guard was released at line \d+; snapshot it inside the critical section`
}

// SelectUnlocks unlocks in the receive clause without leaving.
func SelectUnlocks(s *Store, ch <-chan int) int {
	s.mu.Lock()
	select {
	case <-ch:
		s.mu.Unlock()
	default:
	}
	return s.n // want `read of n guarded by Store\.mu after the guard was released at line \d+; snapshot it inside the critical section`
}

// LoopLocks takes the lock inside a loop that a continue and a labeled
// break can leave; the path that runs no iteration never locks.
func LoopLocks(s *Store, keys []string) int {
scan:
	for _, k := range keys {
		if k == "" {
			continue
		}
		s.mu.RLock()
		break scan
	}
	return s.n // want `read of n guarded by Store\.mu without holding Store\.mu`
}

// IfElseUnlocks returns from its else arm; the then arm falls out after
// unlocking.
func IfElseUnlocks(s *Store, ok bool) int {
	s.mu.Lock()
	if ok {
		s.mu.Unlock()
	} else {
		s.mu.Unlock()
		return 0
	}
	return s.n // want `read of n guarded by Store\.mu after the guard was released at line \d+; snapshot it inside the critical section`
}
