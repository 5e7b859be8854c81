package codec

import (
	"encoding/binary"
	"errors"
	"slices"
	"sort"
	"sync"
)

// Order-0 canonical Huffman coder in the huff0 spirit: code lengths are
// capped at 12 bits so one 4096-entry table lookup decodes one or two
// symbols (see huffDecompress), the table is shipped as 128 bytes of
// packed nibbles, and the bitstream is written LSB-first so encode and
// decode are shift/or loops with no per-bit branches.
//
// Stream layout:
//
//	uvarint  origLen            number of symbols encoded
//	128 B    code lengths       one nibble per symbol, symbol 0 low nibble
//	...      bitstream          canonical codes, bit-reversed, LSB-first
const (
	huffMaxBits    = 12
	huffTableBytes = 128
)

var errHuffCorrupt = errors.New("codec: corrupt huffman stream")

// huffScratch carries the per-call tables so concurrent encoders and
// decoders do not contend on shared arrays.
type huffScratch struct {
	freq [256]int
	lens [256]uint8
	code [256]uint16 // bit-reversed canonical code
	lut  [1 << huffMaxBits]uint16
	pair [1 << huffMaxBits]uint32
}

var huffScratchPool = sync.Pool{New: func() any { return new(huffScratch) }}

// huffCompress appends the entropy-coded form of src to dst, or returns
// dst unchanged with ok=false when the coded form would not be smaller
// (single-symbol degenerate streams still encode: they shrink to ~n/8).
func huffCompress(dst, src []byte) ([]byte, bool) {
	if len(src) == 0 {
		return dst, false
	}
	hs := huffScratchPool.Get().(*huffScratch)
	defer huffScratchPool.Put(hs)
	for i := range hs.freq {
		hs.freq[i] = 0
	}
	for _, b := range src {
		hs.freq[b]++
	}
	if !buildLengths(&hs.freq, &hs.lens) {
		return dst, false
	}
	// Predicted size: ceil(sum freq*len / 8) + header. Bail before paying
	// for the bit loop when entropy coding cannot win.
	bits := 0
	for s, f := range hs.freq {
		bits += f * int(hs.lens[s])
	}
	coded := (bits+7)/8 + huffTableBytes + binary.MaxVarintLen32
	if coded >= len(src) {
		return dst, false
	}
	assignCodes(&hs.lens, &hs.code)

	start := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	for i := 0; i < huffTableBytes; i++ {
		dst = append(dst, hs.lens[2*i]|hs.lens[2*i+1]<<4)
	}
	var acc uint64
	var nbits uint
	for _, b := range src {
		acc |= uint64(hs.code[b]) << nbits
		nbits += uint(hs.lens[b])
		for nbits >= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
			nbits -= 8
		}
	}
	if nbits > 0 {
		dst = append(dst, byte(acc))
	}
	if len(dst)-start >= len(src) {
		return dst[:start], false
	}
	return dst, true
}

// buildLengths computes length-limited (<=12 bit) Huffman code lengths
// for freq into lens. Returns false when only impractical streams remain
// (it never fails for real input; the loop below always converges because
// halving frequencies flattens the distribution toward uniform, whose
// tree depth is 8).
func buildLengths(freq *[256]int, lens *[256]uint8) bool {
	for {
		if !huffTreeLengths(freq, lens) {
			return false
		}
		maxLen := uint8(0)
		for _, l := range lens {
			if l > maxLen {
				maxLen = l
			}
		}
		if maxLen <= huffMaxBits {
			return true
		}
		// Too deep: flatten the distribution and rebuild.
		for i, f := range freq {
			if f > 0 {
				freq[i] = f/2 + 1
			}
		}
	}
}

// huffTreeLengths runs the two-queue Huffman construction and writes each
// symbol's unlimited code length.
func huffTreeLengths(freq *[256]int, lens *[256]uint8) bool {
	type node struct {
		freq   int
		parent int
	}
	// Leaves first (only symbols with freq>0), internals appended after.
	nodes := make([]node, 0, 512)
	order := make([]int, 0, 256) // node index -> symbol, leaves only
	for s, f := range freq {
		if f > 0 {
			nodes = append(nodes, node{freq: f, parent: -1})
			order = append(order, s)
		}
	}
	nLeaves := len(nodes)
	if nLeaves == 0 {
		return false
	}
	for i := range lens {
		lens[i] = 0
	}
	if nLeaves == 1 {
		lens[order[0]] = 1
		return true
	}
	leafIdx := make([]int, nLeaves)
	for i := range leafIdx {
		leafIdx[i] = i
	}
	sort.Slice(leafIdx, func(a, b int) bool { return nodes[leafIdx[a]].freq < nodes[leafIdx[b]].freq })
	// Two monotone queues: sorted leaves and internal nodes in creation
	// order (their frequencies are non-decreasing).
	li, ii := 0, nLeaves
	pick := func() int {
		if li < nLeaves && (ii >= len(nodes) || nodes[leafIdx[li]].freq <= nodes[ii].freq) {
			li++
			return leafIdx[li-1]
		}
		ii++
		return ii - 1
	}
	for m := 0; m < nLeaves-1; m++ {
		a := pick()
		b := pick()
		nodes = append(nodes, node{freq: nodes[a].freq + nodes[b].freq, parent: -1})
		nodes[a].parent = len(nodes) - 1
		nodes[b].parent = len(nodes) - 1
	}
	for i := 0; i < nLeaves; i++ {
		depth := uint8(0)
		for p := nodes[i].parent; p >= 0; p = nodes[p].parent {
			depth++
		}
		lens[order[i]] = depth
	}
	return true
}

// assignCodes derives canonical codes from lengths and stores them
// bit-reversed for LSB-first emission.
func assignCodes(lens *[256]uint8, code *[256]uint16) {
	var blCount [huffMaxBits + 1]int
	for _, l := range lens {
		blCount[l]++
	}
	var next [huffMaxBits + 1]uint16
	c := uint16(0)
	blCount[0] = 0
	for b := 1; b <= huffMaxBits; b++ {
		c = (c + uint16(blCount[b-1])) << 1
		next[b] = c
	}
	for s := 0; s < 256; s++ {
		l := lens[s]
		if l == 0 {
			continue
		}
		code[s] = reverseBits(next[l], l)
		next[l]++
	}
}

func reverseBits(v uint16, n uint8) uint16 {
	var r uint16
	for i := uint8(0); i < n; i++ {
		r = r<<1 | v&1
		v >>= 1
	}
	return r
}

// huffDecompress appends the decoded symbols to dst. maxOut bounds the
// decoded length so corrupt headers cannot force huge allocations.
//
// Decode is table driven. lut maps every 12-bit window to its first
// symbol and that symbol's code length; pair maps it to two symbols when
// the second code also ends inside the window, else to the first alone.
// For streams of at least huffPairMinSyms symbols the hot loop loads one
// 64-bit little-endian word per four pair lookups (at most 48 bits; a
// load at any bit offset holds at least 57), stores both symbol bytes of
// every entry into the pre-sized output and advances by the entry's
// symbol count, so a lone symbol's spare byte is overwritten by the next
// store. Bits past the end of src read as zeros, and one check at the end
// rejects a stream that consumed more bits than it has.
func huffDecompress(dst, src []byte, maxOut int) ([]byte, error) {
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
	// Every code is at least one bit long.
	totalBits := 8 * len(src)
	if origLen > uint64(totalBits) {
		return dst, errHuffCorrupt
	}
	start := len(dst)
	dst = slices.Grow(dst, int(origLen))
	out := dst[start : start+int(origLen)]
	if nSyms == 1 {
		// The single-symbol tree's one code is the 1-bit code 0: the
		// stream is valid iff its first origLen bits are all zero.
		sym := byte(slices.IndexFunc(hs.lens[:], func(l uint8) bool { return l > 0 }))
		full, rest := len(out)/8, len(out)%8
		if slices.ContainsFunc(src[:full], func(b byte) bool { return b != 0 }) ||
			rest > 0 && src[full]&(1<<rest-1) != 0 {
			return dst[:start], errHuffCorrupt
		}
		for i := range out {
			out[i] = sym
		}
		return dst[:start+len(out)], nil
	}
	assignCodes(&hs.lens, &hs.code)
	// A complete code tiles all 4096 windows, so every entry is written.
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
	const window = 1<<huffMaxBits - 1
	bitpos, i := 0, 0
	if len(out) >= huffPairMinSyms {
		hs.fillPairs()
		for i+8 <= len(out) && bitpos>>3+8 <= len(src) {
			acc := binary.LittleEndian.Uint64(src[bitpos>>3:]) >> (bitpos & 7)
			for k := 0; k < 4; k++ {
				p := hs.pair[acc&window]
				binary.LittleEndian.PutUint16(out[i:], uint16(p))
				l := p >> 16 & 0xff
				acc >>= l
				bitpos += int(l)
				i += int(p >> 24)
			}
		}
	}
	// One symbol per lookup: short streams, and the tail of long ones.
	for i+4 <= len(out) && bitpos>>3+8 <= len(src) {
		acc := binary.LittleEndian.Uint64(src[bitpos>>3:]) >> (bitpos & 7)
		for k := 0; k < 4; k++ {
			e := hs.lut[acc&window]
			out[i] = byte(e)
			acc >>= e >> 8
			bitpos += int(e >> 8)
			i++
		}
	}
	// The last few symbols, with zero bits past the end of src.
	var word [8]byte
	for ; i < len(out); i++ {
		var acc uint64
		if b := bitpos >> 3; b+8 <= len(src) {
			acc = binary.LittleEndian.Uint64(src[b:])
		} else if b < len(src) {
			word = [8]byte{}
			copy(word[:], src[b:])
			acc = binary.LittleEndian.Uint64(word[:])
		}
		e := hs.lut[acc>>(bitpos&7)&window]
		out[i] = byte(e)
		bitpos += int(e >> 8)
	}
	if bitpos > totalBits {
		return dst[:start], errHuffCorrupt
	}
	return dst[:start+len(out)], nil
}

// huffPairMinSyms is the stream length from which huffDecompress builds
// and uses the pair table. Filling its 4096 entries costs more than the
// pair lookups save on short streams: on a skewed byte stream, decoding
// from lut alone was faster at 4k symbols and slower at 8k. Shorter
// streams — such as the entropy stage of sparse-coded THRESHOLD blocks —
// skip it.
const huffPairMinSyms = 6 << 10

// fillPairs derives the pair table from lut. Entries hold the symbol
// bytes in bits 0-15, the bits consumed in 16-23 and the symbol count (1
// or 2) in 24-31.
func (hs *huffScratch) fillPairs() {
	for idx, e := range hs.lut {
		l := uint32(e >> 8)
		p := uint32(e&0xff) | l<<16 | 1<<24
		if l < huffMaxBits {
			e2 := hs.lut[idx>>l]
			if l2 := uint32(e2 >> 8); l+l2 <= huffMaxBits {
				p = uint32(e&0xff) | uint32(e2&0xff)<<8 | (l+l2)<<16 | 2<<24
			}
		}
		hs.pair[idx] = p
	}
}
