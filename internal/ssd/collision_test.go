package ssd

import (
	"bytes"
	"fmt"
	"testing"

	"parabit/internal/plan"
)

// TestExecQueriesExactUnderKeyCollisions runs the exec golden's query
// rows, twice each, over every operand layout and scheme with the result
// cache on and off, once with structural keys as they are and once with
// every key hashed to one value. Each row must give the same result
// hash, or the same refusal, both times.
func TestExecQueriesExactUnderKeyCollisions(t *testing.T) {
	defer plan.CollideKeysForTest(false)
	run := func(collide bool) []string {
		plan.CollideKeysForTest(collide)
		l := &execLog{t: t, outcomes: map[string]string{}}
		var rows []string
		for _, layout := range execLayouts {
			for _, scheme := range Schemes {
				for _, cache := range []bool{true, false} {
					cfg := SmallConfig()
					if !cache {
						cfg.QueryCacheBytes = -1
					}
					d := MustNew(cfg)
					lpns, pages := execOperands(d)
					if err := layout.write(d, lpns, pages); err != nil {
						t.Fatalf("%s: %v", layout.name, err)
					}
					l.begin(layout.name, "", d)
					for rep := 0; rep < 2; rep++ {
						for _, q := range execQueries {
							at := l.next()
							r, err := d.ExecuteQuery(mustParse(t, q), scheme, at)
							outcome := "err " + execSentinel(err)
							if err == nil {
								outcome = fmt.Sprintf("%x", r.Data)
							}
							rows = append(rows, fmt.Sprintf("%s %v cache=%v %q: %s", layout.name, scheme, cache, q, outcome))
						}
					}
				}
			}
		}
		return rows
	}
	want, got := run(false), run(true)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d differs under colliding keys:\n got  %.200s\n want %.200s", i, got[i], want[i])
		}
	}
}

// TestCollidingCacheLookupMisses runs a two-level query twice with every
// key hashed to one value: each step's lookup finds another step's entry
// under the shared hash and must miss, while a query of one step still
// hits its own entry.
func TestCollidingCacheLookupMisses(t *testing.T) {
	defer plan.CollideKeysForTest(false)
	plan.CollideKeysForTest(true)
	d := newDevice(t)
	lpns, pages := execOperands(d)
	if err := execLayouts[0].write(d, lpns, pages); err != nil {
		t.Fatal(err)
	}
	e := mustParse(t, "(0 & 1) | (2 & 3)")
	want, err := e.Eval(func(lpn uint64) ([]byte, error) { return pages[lpn], nil })
	if err != nil {
		t.Fatal(err)
	}
	at := d.DrainTime()
	for rep := 0; rep < 2; rep++ {
		r, err := d.ExecuteQuery(e, SchemeLocFree, at)
		if err != nil || !bytes.Equal(r.Data, want) {
			t.Fatalf("run %d: %v, result equal %v", rep, err, bytes.Equal(r.Data, want))
		}
		at = r.Done
	}
	if st := d.QueryStats().Cache; st.Hits != 0 || st.Misses != 6 || st.Entries != 1 {
		t.Fatalf("cache %+v, want 6 misses, no hit, 1 entry", st)
	}
	one := mustParse(t, "4 & 5")
	for rep := 0; rep < 2; rep++ {
		if _, err := d.ExecuteQuery(one, SchemeLocFree, at); err != nil {
			t.Fatal(err)
		}
	}
	if st := d.QueryStats().Cache; st.Hits != 1 {
		t.Fatalf("cache %+v, want the repeated one-step query to hit", st)
	}
}
