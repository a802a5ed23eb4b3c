// Package huffman implements a canonical Huffman coder over uint32 symbol
// streams. It is the entropy-coding backend of the SZ-style pipeline in
// TspSZ: quantization codes and error-bound exponents are Huffman-coded
// before the final DEFLATE pass (cf. SZ's Huffman+ZSTD stage).
package huffman

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// node is a Huffman tree node used only during code-length construction.
type node struct {
	freq        uint64
	symbol      uint32
	left, right int // child indices; -1 for leaves
	order       int // tie-break to keep construction deterministic
}

// nodeHeap is a binary min-heap of node indices keyed by (freq, order).
// Orders are distinct, so the key is a total order and the pop sequence is
// the same for any heap that pops the minimum.
type nodeHeap struct {
	nodes []node
	idx   []int
}

func (h *nodeHeap) less(i, j int) bool {
	a, b := &h.nodes[h.idx[i]], &h.nodes[h.idx[j]]
	if a.freq != b.freq {
		return a.freq < b.freq
	}
	return a.order < b.order
}

// down moves the entry at i towards the leaves until neither child is
// smaller.
func (h *nodeHeap) down(i int) {
	n := len(h.idx)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h.less(r, c) {
			c = r
		}
		if !h.less(c, i) {
			return
		}
		h.idx[i], h.idx[c] = h.idx[c], h.idx[i]
		i = c
	}
}

// pop removes and returns the minimum entry.
func (h *nodeHeap) pop() int {
	top := h.idx[0]
	last := len(h.idx) - 1
	h.idx[0] = h.idx[last]
	h.idx = h.idx[:last]
	h.down(0)
	return top
}

// push adds node index x.
func (h *nodeHeap) push(x int) {
	h.idx = append(h.idx, x)
	for i := len(h.idx) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.idx[i], h.idx[parent] = h.idx[parent], h.idx[i]
		i = parent
	}
}

// codeLengths computes per-symbol Huffman code lengths for the given
// frequency table (parallel slices sym/freq). A single distinct symbol gets
// length 1.
func codeLengths(sym []uint32, freq []uint64) []uint8 {
	n := len(sym)
	if n == 1 {
		return []uint8{1}
	}
	h := &nodeHeap{nodes: make([]node, n, 2*n), idx: make([]int, n)}
	for i := 0; i < n; i++ {
		h.nodes[i] = node{freq: freq[i], symbol: sym[i], left: -1, right: -1, order: i}
		h.idx[i] = i
	}
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	for len(h.idx) > 1 {
		a := h.pop()
		b := h.pop()
		h.nodes = append(h.nodes, node{
			freq:  h.nodes[a].freq + h.nodes[b].freq,
			left:  a,
			right: b,
			order: len(h.nodes),
		})
		h.push(len(h.nodes) - 1)
	}
	root := h.idx[0]
	lengths := make([]uint8, n)
	// Iterative DFS assigning depths to leaves.
	type frame struct {
		n     int
		depth uint8
	}
	// The stack holds at most one frame per level of the tree, so a tree
	// of up to 63 levels never leaves this buffer.
	var buf [64]frame
	stack := append(buf[:0], frame{root, 0})
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := h.nodes[f.n]
		if nd.left == -1 {
			// Leaf: nd.order is its index in sym (leaves were added first).
			lengths[f.n] = f.depth
			continue
		}
		stack = append(stack, frame{nd.left, f.depth + 1}, frame{nd.right, f.depth + 1})
	}
	return lengths
}

// canonical assigns canonical codes given symbols and code lengths. Symbols
// are reordered by (length, symbol value); codes fill in increasing order.
type canonical struct {
	syms []uint32
	lens []uint8
	code []uint64
}

func buildCanonical(sym []uint32, lens []uint8) canonical {
	n := len(sym)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if lens[ia] != lens[ib] {
			return lens[ia] < lens[ib]
		}
		return sym[ia] < sym[ib]
	})
	c := canonical{
		syms: make([]uint32, n),
		lens: make([]uint8, n),
		code: make([]uint64, n),
	}
	var next uint64
	var prevLen uint8
	for i, oi := range order {
		l := lens[oi]
		next <<= (l - prevLen)
		prevLen = l
		c.syms[i] = sym[oi]
		c.lens[i] = l
		c.code[i] = next
		next++
	}
	return c
}

// bitWriter packs MSB-first bits.
type bitWriter struct {
	buf  []byte
	acc  uint64
	nacc uint
}

func (w *bitWriter) writeBits(code uint64, n uint8) {
	w.acc = w.acc<<n | code
	w.nacc += uint(n)
	for w.nacc >= 8 {
		w.nacc -= 8
		w.buf = append(w.buf, byte(w.acc>>w.nacc))
	}
}

func (w *bitWriter) flush() {
	if w.nacc > 0 {
		w.buf = append(w.buf, byte(w.acc<<(8-w.nacc)))
		w.nacc = 0
	}
}

// Encode Huffman-codes the symbol stream into a self-contained byte slice
// including the canonical code table. The layout is: varint count, the
// AppendTable codebook (canonical order sorts primarily by length, so
// symbols are stored as zigzag deltas in (length, symbol) order), then the
// packed code bits — i.e. a single-chunk stream over a one-shot Table.
func Encode(symbols []uint32) ([]byte, error) {
	var out []byte
	out = binary.AppendUvarint(out, uint64(len(symbols)))
	if len(symbols) == 0 {
		return out, nil
	}
	t := BuildTable(symbols)
	out = t.AppendTable(out)
	return t.EncodeChunk(out, symbols), nil
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Decode restores the symbol stream produced by Encode.
func Decode(data []byte) ([]uint32, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("huffman: truncated count")
	}
	data = data[n:]
	if count == 0 {
		return nil, nil
	}
	// Every symbol takes at least a fraction of a bit; reject counts a
	// corrupted stream cannot back, before allocating anything
	// proportional to them.
	if count > 8*uint64(len(data))+64 {
		return nil, fmt.Errorf("huffman: symbol count %d exceeds stream capacity", count)
	}
	t, consumed, err := ParseTable(data, count)
	if err != nil {
		return nil, err
	}
	out := make([]uint32, count)
	if err := t.decodeBits(data[consumed:], out); err != nil {
		return nil, err
	}
	return out, nil
}

// MaxCodeLen is a sanity bound on code lengths; streams with more than 2^58
// symbols of a pathological distribution are outside the supported range.
const MaxCodeLen = 58
