package codec

import "encoding/binary"

// huffDecompressRef is the byte-at-a-time decoder huffDecompress replaced,
// kept unchanged as the oracle FuzzHuffDecodeParity holds the table-pair
// decoder to.
func huffDecompressRef(dst, src []byte, maxOut int) ([]byte, error) {
	origLen, n := binary.Uvarint(src)
	if n <= 0 || origLen > uint64(maxOut) {
		return dst, errHuffCorrupt
	}
	src = src[n:]
	if len(src) < huffTableBytes {
		return dst, errHuffCorrupt
	}
	hs := huffScratchPool.Get().(*huffScratch)
	defer huffScratchPool.Put(hs)
	nSyms := 0
	kraft := 0
	for i := 0; i < huffTableBytes; i++ {
		b := src[i]
		hs.lens[2*i] = b & 0x0f
		hs.lens[2*i+1] = b >> 4
		for _, l := range [2]uint8{b & 0x0f, b >> 4} {
			// A nibble can name lengths 13..15, which the cap forbids;
			// without this check 12-l underflows, the length escapes the
			// Kraft sum, and assignCodes indexes past its arrays.
			if l > huffMaxBits {
				return dst, errHuffCorrupt
			}
			if l > 0 {
				nSyms++
				kraft += 1 << (huffMaxBits - l)
			}
		}
	}
	src = src[huffTableBytes:]
	// Kraft equality rejects tables that are under- or over-subscribed;
	// the single-symbol tree (one length-1 code) is the one legal
	// incomplete shape.
	switch {
	case nSyms == 0:
		return dst, errHuffCorrupt
	case nSyms == 1:
		if kraft != 1<<(huffMaxBits-1) {
			return dst, errHuffCorrupt
		}
	case kraft != 1<<huffMaxBits:
		return dst, errHuffCorrupt
	}
	assignCodes(&hs.lens, &hs.code)
	for i := range hs.lut {
		hs.lut[i] = 0
	}
	for s := 0; s < 256; s++ {
		l := hs.lens[s]
		if l == 0 {
			continue
		}
		entry := uint16(s) | uint16(l)<<8
		for idx := int(hs.code[s]); idx < len(hs.lut); idx += 1 << l {
			hs.lut[idx] = entry
		}
	}
	var acc uint64
	var nbits uint
	pos := 0
	totalBits := 8 * len(src)
	used := 0
	for i := uint64(0); i < origLen; i++ {
		for nbits < huffMaxBits && pos < len(src) {
			acc |= uint64(src[pos]) << nbits
			pos++
			nbits += 8
		}
		e := hs.lut[acc&(1<<huffMaxBits-1)]
		l := uint(e >> 8)
		if l == 0 {
			return dst, errHuffCorrupt
		}
		used += int(l)
		if used > totalBits {
			return dst, errHuffCorrupt
		}
		acc >>= l
		nbits -= l
		dst = append(dst, byte(e))
	}
	return dst, nil
}
