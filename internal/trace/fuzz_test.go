package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzRead: any byte stream either decodes or returns an error, and
// never panics; memory follows the records present, not the header's
// count. A decoded trace re-encodes to the same trace.
func FuzzRead(f *testing.F) {
	var valid bytes.Buffer
	if err := Write(&valid, &Trace{Name: "seed", Instrs: genInstrs(rand.New(rand.NewSource(1)), 20)}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	// Magic, empty name, count 2^32 and no records: the reader used to
	// preallocate 2^32 records for it and die out of memory.
	f.Add(append(magic[:], 0, 0, 0, 0, 0, 0, 1, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var b bytes.Buffer
		if err := Write(&b, tr); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&b)
		if err != nil || !reflect.DeepEqual(back, tr) {
			t.Fatalf("re-encoded trace does not decode to itself (err %v)", err)
		}
	})
}
