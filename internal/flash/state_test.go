package flash

import (
	"bufio"
	"bytes"
	"io"
	"testing"
)

// TestWriteStateBuffered pins that WriteState encodes the same bytes
// whether it appends in place in a bufio.Writer's buffer, flushing it on
// the way, or hands its own buffer to a writer too small to take a block
// or to a plain writer.
func TestWriteStateBuffered(t *testing.T) {
	for _, seed := range arrayStateSeeds(t) {
		a := fuzzArray()
		var parents []io.Reader
		if seed[1] != nil {
			parents = append(parents, bytes.NewReader(seed[1]))
		}
		if err := a.ReadState(bytes.NewReader(seed[0]), stubSegments{t}, parents...); err != nil {
			t.Fatal(err)
		}
		want := encode(t, a, false)
		// 16 is too small for one block; 64 takes one at a time and
		// flushes between them; 4096 takes the whole array.
		for _, size := range []int{16, 64, 4096} {
			var out bytes.Buffer
			bw := bufio.NewWriterSize(&out, size)
			if _, _, _, err := a.WriteState(bw, false, nil); err != nil {
				t.Fatal(err)
			}
			if err := bw.Flush(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("through a %d-byte bufio.Writer: %x, want %x", size, out.Bytes(), want)
			}
		}
	}
}
