// Package orderbad holds every shape lockorder reports: the classic
// two-mutex AB/BA deadlock cycle, the same cycle closed through a
// helper function, re-acquisition of a held mutex, two instances of one
// class without a fixed order, a declared-order inversion, malformed
// pragmas, and re-acquisitions reached only through the joins of a
// switch, type switch, select, loop or if/else.
package orderbad

import "sync"

type A struct{ mu sync.Mutex }

type B struct{ mu sync.Mutex }

func AB(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want `acquiring B\.mu while holding A\.mu closes a lock-order cycle: A\.mu -> B\.mu -> A\.mu`
	b.mu.Unlock()
}

func BA(a *A, b *B) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.mu.Lock() // want `acquiring A\.mu while holding B\.mu closes a lock-order cycle: B\.mu -> A\.mu -> B\.mu`
	a.mu.Unlock()
}

func Reacquire(a *A) {
	a.mu.Lock()
	a.mu.Lock() // want `re-acquiring A\.mu, which this path already holds: certain self-deadlock`
	a.mu.Unlock()
	a.mu.Unlock()
}

type Shard struct{ mu sync.Mutex }

func Transfer(src, dst *Shard) {
	src.mu.Lock()
	defer src.mu.Unlock()
	dst.mu.Lock() // want `acquiring Shard\.mu while another Shard\.mu is already held; two instances of one class taken without a fixed order can deadlock`
	dst.mu.Unlock()
}

type C struct{ mu sync.Mutex }

type D struct{ mu sync.Mutex }

//parabit:lockorder C.mu < D.mu

func Inverted(c *C, d *D) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c.mu.Lock() // want `acquiring C\.mu while holding D\.mu inverts the declared lock order \(C\.mu < D\.mu\)`
	c.mu.Unlock()
}

type E struct{ mu sync.Mutex }

type F struct{ mu sync.Mutex }

func lockF(f *F) {
	f.mu.Lock()
	f.mu.Unlock()
}

// EF closes its half of the cycle through the helper: lockF's
// acquisitions count at the call site.
func EF(e *E, f *F) {
	e.mu.Lock()
	defer e.mu.Unlock()
	lockF(f) // want `acquiring F\.mu while holding E\.mu closes a lock-order cycle: E\.mu -> F\.mu -> E\.mu`
}

func FE(e *E, f *F) {
	f.mu.Lock()
	defer f.mu.Unlock()
	e.mu.Lock() // want `acquiring E\.mu while holding F\.mu closes a lock-order cycle: F\.mu -> E\.mu -> F\.mu`
	e.mu.Unlock()
}

type G struct{ mu sync.Mutex }

func lockG(g *G) {
	g.mu.Lock()
	g.mu.Unlock()
}

// Nested calls a helper that re-locks the class it already holds.
func Nested(g *G) {
	g.mu.Lock()
	defer g.mu.Unlock()
	lockG(g) // want `acquiring G\.mu while another G\.mu is already held`
}

//parabit:lockorder nonsense // want `malformed lockorder pragma`

//parabit:lockorder Nope.mu < C.mu // want `lockorder pragma names unknown lock class "Nope\.mu"`

// R is a mutex the branch cases below re-acquire; each second Lock is
// reached only on paths that still hold the first.
type R struct{ mu sync.Mutex }

// SwitchDefault locks in both clauses; with a default no path falls past.
func SwitchDefault(r *R, k int) {
	switch k {
	case 0:
		r.mu.Lock()
	default:
		r.mu.Lock()
	}
	r.mu.Lock() // want `re-acquiring R\.mu, which this path already holds: certain self-deadlock`
}

// SwitchNoDefault unlocks only in a clause that returns; the fall-past
// path still holds the lock.
func SwitchNoDefault(r *R, k int) {
	r.mu.Lock()
	switch k {
	case 0:
		r.mu.Unlock()
		return
	}
	r.mu.Lock() // want `re-acquiring R\.mu, which this path already holds: certain self-deadlock`
}

// TypeSwitch unlocks only in a type-switch clause that returns.
func TypeSwitch(r *R, v any) {
	r.mu.Lock()
	switch v.(type) {
	case int:
		r.mu.Unlock()
		return
	case string:
	}
	r.mu.Lock() // want `re-acquiring R\.mu, which this path already holds: certain self-deadlock`
}

// Select unlocks only in a select clause that returns.
func Select(r *R, ch <-chan int) {
	r.mu.Lock()
	select {
	case <-ch:
		r.mu.Unlock()
		return
	default:
	}
	r.mu.Lock() // want `re-acquiring R\.mu, which this path already holds: certain self-deadlock`
}

// Loop unlocks only before a continue and a labeled break, which leave
// the iteration; every path out of the loop still holds the lock.
func Loop(r *R, n int) {
	r.mu.Lock()
scan:
	for i := 0; i < n; i++ {
		if i == 0 {
			r.mu.Unlock()
			continue
		}
		if i > 8 {
			r.mu.Unlock()
			break scan
		}
	}
	r.mu.Lock() // want `re-acquiring R\.mu, which this path already holds: certain self-deadlock`
}

// IfElse locks in its then arm and returns from its else arm.
func IfElse(r *R, ok bool) {
	if ok {
		r.mu.Lock()
	} else {
		return
	}
	r.mu.Lock() // want `re-acquiring R\.mu, which this path already holds: certain self-deadlock`
}
