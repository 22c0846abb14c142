package fingerprint

import (
	"bytes"
	"crypto/sha1"
	"testing"
	"testing/quick"
)

func TestOfMatchesSHA1(t *testing.T) {
	data := []byte("the quick brown fox")
	want := sha1.Sum(data)
	if got := Of(data); got != FP(want) {
		t.Fatalf("Of() = %s, want %x", got, want)
	}
}

func TestOfEmpty(t *testing.T) {
	if Of(nil) != Of([]byte{}) {
		t.Fatal("Of(nil) and Of(empty) differ")
	}
}

func TestStringAndShort(t *testing.T) {
	fp := Of([]byte("x"))
	if len(fp.String()) != 2*Size {
		t.Errorf("String() length = %d, want %d", len(fp.String()), 2*Size)
	}
	if len(fp.Short()) != 8 {
		t.Errorf("Short() length = %d, want 8", len(fp.Short()))
	}
	if fp.String()[:8] != fp.Short() {
		t.Errorf("Short() %q is not a prefix of String() %q", fp.Short(), fp.String())
	}
}

func TestCompareConsistentWithBytes(t *testing.T) {
	check := func(a, b [Size]byte) bool {
		f, g := FP(a), FP(b)
		want := bytes.Compare(a[:], b[:])
		if f.Compare(g) != want {
			return false
		}
		if f.Less(g) != (want < 0) {
			return false
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	fp := Of([]byte("payload"))
	for _, tc := range []struct{ prefix, suffix string }{
		{"", ""},
		{"header", "next field"}, // embedded in a larger record
	} {
		buf := append(fp.Marshal([]byte(tc.prefix)), tc.suffix...)
		got, rest, err := UnmarshalFP(buf[len(tc.prefix):])
		if err != nil {
			t.Fatal(err)
		}
		if got != fp {
			t.Errorf("round trip: got %s, want %s", got, fp)
		}
		if string(buf[:len(tc.prefix)]) != tc.prefix || string(rest) != tc.suffix {
			t.Errorf("neighbouring bytes disturbed: %q ... %q", buf[:len(tc.prefix)], rest)
		}
	}
}

func TestUnmarshalShortBuffer(t *testing.T) {
	if _, _, err := UnmarshalFP(make([]byte, Size-1)); err == nil {
		t.Fatal("expected error on short buffer")
	}
}
