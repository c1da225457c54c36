// Package guardok exercises the legal patterns guardedby must accept:
// defer-unlock, RLock reads, early-return unlock branches, *Locked
// helpers called under the lock, snapshots taken inside the critical
// section, in-place closures, goroutines that lock for themselves,
// go-statement arguments evaluated under the lock, lock state carried
// through switch, type switch, select, loops and if/else, and
// //lint:ignore suppression.
package guardok

import "sync"

type Store struct {
	mu   sync.RWMutex
	cols map[string][]uint64 // guarded by mu
	n    int                 // guarded by mu
}

func New() *Store {
	return &Store{cols: make(map[string][]uint64)}
}

func (s *Store) Put(k string, v []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cols[k] = v
	s.n++
}

func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n
}

func (s *Store) Delete(k string) {
	s.mu.Lock()
	if _, ok := s.cols[k]; !ok {
		s.mu.Unlock()
		return
	}
	delete(s.cols, k)
	s.n--
	s.mu.Unlock()
}

// growLocked follows the helper convention: every caller holds s.mu.
func (s *Store) growLocked(k string, v []uint64) {
	s.cols[k] = append(s.cols[k], v...)
	s.n++
}

func (s *Store) Append(k string, v []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.growLocked(k, v)
}

// Background's goroutine takes the lock for itself before touching
// guarded state.
func (s *Store) Background(k string, v []uint64) {
	go func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.cols[k] = v
	}()
}

func Sum(s *Store) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := 0
	for _, col := range s.cols {
		total += len(col)
	}
	return total
}

// IgnoredEstimate shows the deliberate escape hatch.
func IgnoredEstimate(s *Store) int {
	//lint:ignore guardedby racy estimate is fine for logging
	return s.n
}

type Dir struct {
	mu   sync.RWMutex
	cols map[string]*entry // guarded by mu
}

type entry struct {
	size int // guarded by Dir.mu
}

// Size snapshots the guarded field inside the critical section — the
// fixed ReadColumn shape.
func (d *Dir) Size(key string) int {
	d.mu.RLock()
	size := 0
	if e := d.cols[key]; e != nil {
		size = e.size
	}
	d.mu.RUnlock()
	return size
}

// Grow writes an entry's guarded field under the write lock.
func (d *Dir) Grow(key string, n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.cols[key]
	if e == nil {
		e = &entry{}
		d.cols[key] = e
	}
	e.size = n
}

// Reset locks in both clauses of a switch with a default, so the write
// after the switch holds the lock on every path.
func (s *Store) Reset(full bool) {
	switch {
	case full:
		s.mu.Lock()
		s.cols = make(map[string][]uint64)
	default:
		s.mu.Lock()
	}
	s.n = 0
	s.mu.Unlock()
}

// Pick unlocks and returns in its only clause; the fall-past path of a
// switch without a default still holds the lock.
func (s *Store) Pick(k string) int {
	s.mu.RLock()
	switch k {
	case "":
		s.mu.RUnlock()
		return 0
	}
	n := len(s.cols[k])
	s.mu.RUnlock()
	return n
}

// Add leaves a type switch through a returning clause that unlocks; the
// clause that falls out keeps the lock.
func (s *Store) Add(v any) int {
	s.mu.Lock()
	switch x := v.(type) {
	case int:
		s.n += x
	default:
		s.mu.Unlock()
		return 0
	}
	n := s.n
	s.mu.Unlock()
	return n
}

// Wait leaves a select through its default clause without the lock; the
// receive clause keeps it.
func (s *Store) Wait(ch <-chan int) int {
	s.mu.Lock()
	select {
	case v := <-ch:
		s.n += v
	default:
		s.mu.Unlock()
		return 0
	}
	n := s.n
	s.mu.Unlock()
	return n
}

// Total unlocks before a continue and before a labeled break, so the read
// after both checks still holds the lock.
func (s *Store) Total(keys []string) int {
	total := 0
scan:
	for _, k := range keys {
		s.mu.RLock()
		col, ok := s.cols[k]
		if !ok {
			s.mu.RUnlock()
			continue
		}
		if len(col) == 0 {
			s.mu.RUnlock()
			break scan
		}
		total += len(col) + s.n
		s.mu.RUnlock()
	}
	return total
}

// Get returns from its else arm; the then arm takes the lock the read
// needs.
func (s *Store) Get(k string) int {
	if k != "" {
		s.mu.RLock()
	} else {
		return 0
	}
	defer s.mu.RUnlock()
	return len(s.cols[k])
}

// Spawn hands a guarded field to a goroutine: a go statement evaluates
// its arguments in the spawning goroutine, here under the lock.
func (s *Store) Spawn(use func(int)) {
	s.mu.Lock()
	go use(s.n)
	s.mu.Unlock()
}
