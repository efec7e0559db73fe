package isa

import (
	"math/rand"
	"reflect"
	"testing"
)

// FuzzDecode decodes arbitrary bytes: Decode must return an instruction
// or an error, never panic, and an instruction it returns must survive an
// encode/decode round trip unchanged. The seeds are the random 16-byte
// buffers of a fixed generator that decode (about one in 130 does), plus
// a short buffer.
func FuzzDecode(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	seeds := 0
	for i := 0; i < 20000; i++ {
		buf := make([]byte, InstrSize)
		r.Read(buf)
		if _, err := Decode(buf); err == nil {
			f.Add(buf)
			seeds++
		}
	}
	if seeds == 0 {
		f.Fatal("no random buffer decoded; generator or decoder too strict")
	}
	f.Add([]byte{byte(HALT)})
	f.Fuzz(func(t *testing.T, src []byte) {
		in, err := Decode(src)
		if err != nil {
			return
		}
		enc := make([]byte, InstrSize)
		Encode(enc, &in)
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of encoded instruction failed: %v (%+v)", err, in)
		}
		if !reflect.DeepEqual(in, back) {
			t.Fatalf("decode/encode/decode mismatch:\n %+v\n %+v", in, back)
		}
	})
}
