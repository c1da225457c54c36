package ssd

import "math/bits"

// The data scrambler. Real SSDs whiten data before programming to avoid
// worst-case cell patterns; §4.3.2 notes this complicates ParaBit, whose
// latching-circuit operations see raw cell contents. The firmware
// therefore disables scrambling when operands are allocated or
// reallocated and re-applies it when results are restored to normal
// storage. This file models a per-page keystream scrambler so the device
// can demonstrate exactly that behaviour (and tests can show the garbage
// ParaBit would compute on scrambled operands).

// scrambleKeystream XORs data in place with a keystream derived from the
// logical page number. XOR is an involution, so the same call descrambles.
func scrambleKeystream(lpn uint64, data []byte) {
	// SplitMix64-style stream seeded by the LPN; one 64-bit word per
	// 8 bytes keeps it cheap and reproducible.
	state := lpn*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	for i := 0; i < len(data); i += 8 {
		state += 0x9E3779B97F4A7C15
		z := state
		z ^= z >> 30
		z *= 0xBF58476D1CE4E5B9
		z ^= z >> 27
		z *= 0x94D049BB133111EB
		z ^= z >> 31
		for j := 0; j < 8 && i+j < len(data); j++ {
			data[i+j] ^= byte(z >> (8 * j))
		}
	}
}

// plainSet is a bitset over logical pages marking those stored without
// scrambling. Like the FTL's mapping tables it is paged: a page of bits
// is allocated on the first add, so a device over the paper's full
// geometry holds only a pointer per 32768 logical pages until operands
// land.
type plainSet struct {
	pages []*[plainPageWords]uint64
	n     int // pages marked plain
}

const (
	plainPageWords = 512
	plainPageBits  = plainPageWords * 64
)

func newPlainSet(logical uint64) plainSet {
	return plainSet{pages: make([]*[plainPageWords]uint64, (logical+plainPageBits-1)/plainPageBits)}
}

// has reports whether lpn is marked plain.
func (s *plainSet) has(lpn uint64) bool {
	if hi := lpn / plainPageBits; hi < uint64(len(s.pages)) {
		if p := s.pages[hi]; p != nil {
			return p[lpn%plainPageBits/64]&(1<<(lpn%64)) != 0
		}
	}
	return false
}

// add marks lpn, which must lie in the logical space, plain.
func (s *plainSet) add(lpn uint64) {
	p := s.pages[lpn/plainPageBits]
	if p == nil {
		p = new([plainPageWords]uint64)
		s.pages[lpn/plainPageBits] = p
	}
	w, bit := &p[lpn%plainPageBits/64], uint64(1)<<(lpn%64)
	if *w&bit == 0 {
		*w |= bit
		s.n++
	}
}

// remove unmarks lpn.
func (s *plainSet) remove(lpn uint64) {
	if !s.has(lpn) {
		return
	}
	s.pages[lpn/plainPageBits][lpn%plainPageBits/64] &^= 1 << (lpn % 64)
	s.n--
}

// each calls fn for every plain page in ascending LPN order.
func (s *plainSet) each(fn func(lpn uint64)) {
	for hi, p := range s.pages {
		if p == nil {
			continue
		}
		for w, word := range p {
			for word != 0 {
				fn(uint64(hi)*plainPageBits + uint64(w)*64 + uint64(bits.TrailingZeros64(word)))
				word &= word - 1
			}
		}
	}
}
