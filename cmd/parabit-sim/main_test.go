package main

import (
	"testing"

	"parabit"
)

func TestParseOp(t *testing.T) {
	for _, name := range []string{"AND", "and", "XOR", "NOT-LSB", "not-msb"} {
		if _, ok := parseOp(name); !ok {
			t.Errorf("parseOp(%q) failed", name)
		}
	}
	if _, ok := parseOp("bogus"); ok {
		t.Error("parseOp accepted bogus")
	}
}

// TestParseScheme checks the -scheme spellings the CLI accepts: the
// registry names and their short aliases, in any case.
func TestParseScheme(t *testing.T) {
	cases := map[string]bool{
		"prealloc": true, "parabit": true, "realloc": true,
		"locfree": true, "LOCFREE": true, "nope": false,
		"fc": true, "flashcosmos": true, "Flash-Cosmos": true,
		"ParaBit-LocFree": true,
	}
	for name, want := range cases {
		if _, err := parabit.ParseScheme(name); (err == nil) != want {
			t.Errorf("ParseScheme(%q) = %v, want ok=%v", name, err, want)
		}
	}
}

func TestFillPage(t *testing.T) {
	page, err := fillPage("a5", 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range page {
		if b != 0xA5 {
			t.Fatal("pattern not repeated")
		}
	}
	page, err = fillPage("0102", 5)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 2, 1, 2, 1}
	for i := range want {
		if page[i] != want[i] {
			t.Fatalf("byte %d = %d", i, page[i])
		}
	}
	if _, err := fillPage("zz", 8); err == nil {
		t.Error("bad hex accepted")
	}
	if _, err := fillPage("", 8); err == nil {
		t.Error("empty pattern accepted")
	}
}
