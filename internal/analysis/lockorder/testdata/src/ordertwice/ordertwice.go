// Package ordertwice creates one lock-order edge, D.mu -> C.mu against
// the declared C.mu < D.mu, in two functions. The edge is reported once,
// at its lowest site, whichever function the analyzer walks first; the
// later site carries no diagnostic.
package ordertwice

import "sync"

type C struct{ mu sync.Mutex }

type D struct{ mu sync.Mutex }

//parabit:lockorder C.mu < D.mu

func First(c *C, d *D) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c.mu.Lock() // want `acquiring C\.mu while holding D\.mu inverts the declared lock order \(C\.mu < D\.mu\)`
	c.mu.Unlock()
}

func Second(c *C, d *D) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c.mu.Lock()
	c.mu.Unlock()
}
