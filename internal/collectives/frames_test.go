package collectives

import (
	"bytes"
	"errors"
	"testing"
)

// TestFrameListKeepsOnlyItsOwn walks the free list through each rule: it
// keeps only buffers it has out — not a foreign one, not another list's,
// not one given back twice or cut from the front of its buffer, not one
// kept — and Keep stops counting a buffer as out; a size is served from
// the smallest class of free buffers that holds it; a size no free buffer
// holds is made new, exactly sized, and drops a free buffer, so the list
// never holds more than were ever out at once; a buffer given back is
// poisoned, whoever made it; and close empties the list.
func TestFrameListKeepsOnlyItsOwn(t *testing.T) {
	var l, other frameList
	foreign := make([]byte, 64)
	l.put(foreign)
	if l.n != 0 || foreign[0] != poisonByte {
		t.Fatalf("a foreign buffer given back: %d kept, first byte %#x; want none kept, poisoned", l.n, foreign[0])
	}
	b, kept := l.get(64), l.get(64)
	l.put(other.get(64))
	l.put(b[8:])
	if l.n != 0 || len(l.lent) != 2 {
		t.Fatalf("after another list's buffer and a cut one: %d free, %d out; want 0 and 2", l.n, len(l.lent))
	}
	l.put(b)
	l.put(b)
	if l.n != 1 || len(l.lent) != 1 {
		t.Fatalf("after a buffer given back twice: %d free, %d out; want 1 and 1", l.n, len(l.lent))
	}
	l.keep(kept)
	l.put(kept)
	if l.n != 1 || len(l.lent) != 0 {
		t.Fatalf("after a kept buffer given back: %d free, %d out; want 1 and 0", l.n, len(l.lent))
	}
	l.get(64)
	small, big := l.get(100), l.get(1000)
	if len(small) != 100 || cap(small) != 100 || len(big) != 1000 || cap(big) != 1000 {
		t.Fatalf("new buffers of len/cap %d/%d and %d/%d, want 100/100 and 1000/1000", len(small), cap(small), len(big), cap(big))
	}
	l.put(big)
	l.put(small)
	if got := l.get(50); cap(got) != 100 || len(got) != 50 {
		t.Fatalf("get(50) gave len %d cap %d, want the 100-byte buffer", len(got), cap(got))
	}
	for i := range big[:cap(big)] {
		if big[i] != poisonByte {
			t.Fatalf("byte %d of a buffer given back is %#x, not poisoned", i, big[i])
		}
	}
	// The 1000-byte buffer is free, the 100-byte one out: a 2000-byte ask
	// makes a new buffer and drops the free one.
	if got := l.get(2000); cap(got) != 2000 || l.n != 0 {
		t.Fatalf("get(2000) gave cap %d with %d buffers left free, want a new one and none", cap(got), l.n)
	}
	if l.n+len(l.lent) > l.peakOut {
		t.Fatalf("free list holds %d with %d out, more than the %d ever out at once", l.n, len(l.lent), l.peakOut)
	}
	l.put(l.get(10))
	l.close()
	if l.n != 0 || l.classes != 0 {
		t.Fatal("close left buffers in the list")
	}
	l.put(small)
	if l.n != 0 {
		t.Fatal("a closed list kept a buffer")
	}
}

// TestFramesComeBackOnFailure: a buffer taken from a free list for a
// frame goes back when the frame cannot be delivered — a wildcard frame
// whose stream breaks mid-payload, wildcard frames queued in a mailbox
// when it aborts and those put into it after — and an abort frame is read
// into a buffer of its own. Other messages queued at the abort stay
// deliverable.
func TestFramesComeBackOnFailure(t *testing.T) {
	var l frameList
	var stream bytes.Buffer
	writeFrame(&stream, tagWinBase, make([]byte, 100))
	if _, _, _, err := readFrame(bytes.NewReader(stream.Bytes()[:stream.Len()-1]), &l); err == nil {
		t.Fatal("a frame cut short was read")
	}
	stream.Reset()
	writeFrame(&stream, tagAbort, encodeAbortMsg([]int{1}, "gone"))
	if _, _, _, err := readFrame(&stream, &l); err != nil {
		t.Fatal(err)
	}
	if len(l.lent) != 0 {
		t.Fatalf("%d buffers out after a cut frame and an abort frame, want none", len(l.lent))
	}

	box := newMailbox(&l)
	box.put(0, tagWinBase, l.get(64))
	box.put(0, 5, []byte("queued"))
	box.abort(&CollectiveError{Cause: errors.New("test abort")})
	box.put(1, WildcardTag(0), l.get(64))
	if len(l.lent) != 0 || l.n == 0 {
		t.Fatalf("aborted mailbox: %d buffers out, %d free; want none out", len(l.lent), l.n)
	}
	if data, err := box.get(0, 5); err != nil || string(data) != "queued" {
		t.Fatalf("message queued before the abort: %q, %v", data, err)
	}
}
