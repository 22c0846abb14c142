package fingerprint

import (
	"bytes"
	"crypto/sha1"
	"encoding/hex"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
)

// sha1Paths are the two ways Of can hash: the SHA-NI kernel, when init
// selected it, and the crypto/sha1 fallback, called directly.
var sha1Paths = []struct {
	name   string
	kernel bool
	sum    func([]byte) FP
}{
	{"kernel", true, Of},
	{"crypto-sha1", false, sha1Sum},
}

// eachPath runs check for every SHA-1 path; the kernel case skips, and
// says why, on a CPU without SHA-NI.
func eachPath(t *testing.T, check func(t *testing.T, sum func([]byte) FP)) {
	for _, p := range sha1Paths {
		t.Run(p.name, func(t *testing.T) {
			if p.kernel && sumPath != "SHA-NI" {
				t.Skipf("Of runs %s here (GOARCH=%s): this CPU has no SHA-NI kernel path", sumPath, runtime.GOARCH)
			}
			check(t, p.sum)
		})
	}
}

// TestSHA1FIPS180Vectors checks the FIPS 180 SHA-1 examples: the empty
// message, "abc", the 448-bit message and a million "a"s.
func TestSHA1FIPS180Vectors(t *testing.T) {
	vectors := []struct {
		msg    []byte
		digest string
	}{
		{nil, "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
		{[]byte("abc"), "a9993e364706816aba3e25717850c26c9cd0d89d"},
		{[]byte("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"), "84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
		{bytes.Repeat([]byte("a"), 1_000_000), "34aa973cd4c4daa4f61eeb2bdbad27316534016f"},
	}
	eachPath(t, func(t *testing.T, sum func([]byte) FP) {
		for _, v := range vectors {
			if got := sum(v.msg); hex.EncodeToString(got[:]) != v.digest {
				t.Errorf("%d-byte message: %s, want %s", len(v.msg), got, v.digest)
			}
		}
	})
}

// TestSHA1EveryLengthAndOffset compares with crypto/sha1 on every length
// from 0 to 1,100 bytes at each start offset 0-15 inside one buffer: the
// kernel loads message blocks unaligned.
func TestSHA1EveryLengthAndOffset(t *testing.T) {
	buf := make([]byte, 16+1100)
	rand.New(rand.NewSource(33)).Read(buf)
	eachPath(t, func(t *testing.T, sum func([]byte) FP) {
		for off := 0; off < 16; off++ {
			for n := 0; n <= 1100; n++ {
				if msg := buf[off : off+n]; sum(msg) != FP(sha1.Sum(msg)) {
					t.Fatalf("%d bytes at offset %d differ from crypto/sha1", n, off)
				}
			}
		}
	})
}

// TestSHA1RandomLengths compares with crypto/sha1 on random buffers of up
// to 1 MiB.
func TestSHA1RandomLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bufs := make([][]byte, 24)
	for i := range bufs {
		bufs[i] = make([]byte, rng.Intn(1<<20+1))
		rng.Read(bufs[i])
	}
	eachPath(t, func(t *testing.T, sum func([]byte) FP) {
		for _, b := range bufs {
			if sum(b) != FP(sha1.Sum(b)) {
				t.Fatalf("%d-byte buffer differs from crypto/sha1", len(b))
			}
		}
	})
}

// TestSHA1Allocs: fingerprinting a page allocates nothing.
func TestSHA1Allocs(t *testing.T) {
	page := make([]byte, 4096)
	eachPath(t, func(t *testing.T, sum func([]byte) FP) {
		if n := testing.AllocsPerRun(100, func() { sum(page) }); n != 0 {
			t.Fatalf("%v allocations per 4 KiB fingerprint, want 0", n)
		}
	})
}

// TestKernelSelected fails when the CPU has what the kernel needs but Of
// still runs crypto/sha1 — a wrong CPUID decode would otherwise fall back
// silently and leave the fast path dead. It logs the path either way.
func TestKernelSelected(t *testing.T) {
	t.Logf("Of runs SHA-1 through %s (GOARCH=%s)", sumPath, runtime.GOARCH)
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("CPU flags are read from /proc/cpuinfo, on linux/amd64 only")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot read CPU flags: %v", err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(info), "\n") {
		if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "flags" {
			for _, f := range strings.Fields(val) {
				flags[f] = true
			}
			break
		}
	}
	has := flags["sha_ni"] && flags["ssse3"] && flags["sse4_1"]
	if selected := sumPath == "SHA-NI"; selected != has {
		t.Fatalf("kernel selected = %v, but /proc/cpuinfo lists sha_ni %v, ssse3 %v, sse4_1 %v",
			selected, flags["sha_ni"], flags["ssse3"], flags["sse4_1"])
	}
	if !has {
		t.Skip("this CPU lacks sha_ni, ssse3 or sse4_1: Of runs crypto/sha1 and the kernel cases skip")
	}
}
