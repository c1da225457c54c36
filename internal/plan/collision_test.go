package plan_test

import (
	"bytes"
	"math/rand"
	"testing"

	"parabit/internal/persist"
	"parabit/internal/plan"
	"parabit/internal/sim"
	"parabit/internal/ssd"
)

// TestKeyCorpusExactUnderCollisions runs the key golden's corpus, each
// query twice, through a device with the result cache on, first with
// structural keys as they are and then with every key hashed to one
// value. The leaves map onto sixteen stored pages. Every result must
// equal the software evaluation either way: a collision may only cost
// sharing, in the compiler's memo or the cache, never a wrong page.
func TestKeyCorpusExactUnderCollisions(t *testing.T) {
	defer plan.CollideKeysForTest(false)
	for _, collide := range []bool{false, true} {
		plan.CollideKeysForTest(collide)
		d := ssd.MustNew(ssd.SmallConfig())
		lpns := make([]uint64, 16)
		pages := make([][]byte, len(lpns))
		rng := rand.New(rand.NewSource(11))
		for i := range lpns {
			lpns[i] = uint64(i)
			pages[i] = make([]byte, d.PageSize())
			rng.Read(pages[i])
			if _, err := d.WritePages(persist.OpWriteOnPlane, 0, lpns[i:i+1], pages[i:i+1], 0); err != nil {
				t.Fatal(err)
			}
		}
		read := func(lpn uint64) ([]byte, error) { return pages[lpn], nil }
		at := d.DrainTime()
		for _, e := range plan.KeyCorpus(t) {
			m := e.MapLeaves(func(lpn uint64) uint64 { return lpn % uint64(len(lpns)) })
			want, err := m.Eval(read)
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 2; rep++ {
				r, err := d.ExecuteQuery(m, ssd.SchemeLocFree, at)
				if err != nil {
					t.Fatalf("collide=%v %s: %v", collide, m, err)
				}
				if !bytes.Equal(r.Data, want) {
					t.Fatalf("collide=%v %s run %d: result differs from Eval", collide, m, rep)
				}
				at = at.Add(5 * sim.Microsecond)
			}
		}
		if st := d.QueryStats().Cache; collide && st.Entries > 1 {
			t.Fatalf("%d cache entries under one hash, want at most 1", st.Entries)
		}
	}
}
