package fingerprint

import "encoding/binary"

// blockSHANI runs SHA-1's compression over every whole 64-byte block of
// p into h, on the CPU's SHA extensions (sha1block_amd64.s) — the
// instructions OpenSSL's SHA-1 uses and crypto/sha1 on amd64 does not.
//
//go:noescape
func blockSHANI(h *[5]uint32, p []byte)

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// init selects the kernel when CPUID reports SHA (leaf 7 EBX bit 29),
// SSSE3 and SSE4.1 (leaf 1 ECX bits 9 and 19).
func init() {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	if ebx7&(1<<29) != 0 && ecx1&(1<<9) != 0 && ecx1&(1<<19) != 0 {
		sum, sumPath = sumSHANI, "SHA-NI"
	}
}

// sumSHANI is SHA-1 through the kernel: whole blocks straight from data,
// the padded tail from a stack buffer, so it allocates nothing.
func sumSHANI(data []byte) FP {
	h := [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
	n := len(data) &^ 63
	blockSHANI(&h, data[:n])
	var tail [128]byte
	r := copy(tail[:], data[n:])
	tail[r] = 0x80
	t := 64
	if r >= 56 {
		t = 128
	}
	binary.BigEndian.PutUint64(tail[t-8:], uint64(len(data))<<3)
	blockSHANI(&h, tail[:t])
	var fp FP
	for i, v := range h {
		binary.BigEndian.PutUint32(fp[4*i:], v)
	}
	return fp
}
