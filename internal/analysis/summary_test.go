package analysis

import "testing"

// These tests exercise the interprocedural half of the taint engine:
// call-graph summaries must carry taint across function boundaries in
// both directions (tainted arguments reaching callee sinks, tainted
// results reaching caller sinks), through transitive chains, and
// callee-side validation must sanitize caller-side values.

// TestInterprocHuffmanOOB reproduces the PR 1 over-subscribed-table bug
// split across a function boundary: the code lengths are read in the
// caller but index the count table inside a helper. The finding lands on
// the call site that hands untrusted lengths to the unguarded helper.
func TestInterprocHuffmanOOB(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/dec/lens.go": `package dec

import (
	"fmt"
	"io"
)

const maxCodeLen = 58

func count(lens []byte, countAt []int) {
	for _, l := range lens {
		countAt[l]++
	}
}

func countChecked(lens []byte, countAt []int) error {
	for _, l := range lens {
		if int(l) > maxCodeLen {
			return fmt.Errorf("dec: code length %d out of range", l)
		}
		countAt[l]++
	}
	return nil
}

func Decode(r io.Reader, n int) ([]int, error) {
	lens := make([]byte, n)
	if _, err := io.ReadFull(r, lens); err != nil {
		return nil, err
	}
	countAt := make([]int, maxCodeLen+1)
	count(lens, countAt)
	return countAt, nil
}

func DecodeChecked(r io.Reader, n int) ([]int, error) {
	lens := make([]byte, n)
	if _, err := io.ReadFull(r, lens); err != nil {
		return nil, err
	}
	countAt := make([]int, maxCodeLen+1)
	if err := countChecked(lens, countAt); err != nil {
		return nil, err
	}
	return countAt, nil
}
`,
	})
	expectLines(t, runCheck(t, dir, "indexguard"), "internal/dec/lens.go:32")
}

// TestInterprocUnboundedInflate reproduces the PR 2 decompression-bomb
// bug split two ways: a helper that returns the flate reader (taint
// flows out through the result) and a helper that consumes a reader
// parameter (taint flows in through the argument). The LimitReader
// variant must stay clean.
func TestInterprocUnboundedInflate(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/dec/inflate.go": `package dec

import (
	"bytes"
	"compress/flate"
	"io"
)

func newBody(data []byte) io.ReadCloser {
	return flate.NewReader(bytes.NewReader(data))
}

func Inflate(data []byte) ([]byte, error) {
	r := newBody(data)
	defer r.Close()
	return io.ReadAll(r)
}

func slurp(r io.Reader) ([]byte, error) {
	return io.ReadAll(r)
}

func InflateVia(data []byte) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(data))
	defer r.Close()
	return slurp(r)
}

func InflateCapped(data []byte) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(data))
	defer r.Close()
	return slurp(io.LimitReader(r, 1<<20))
}
`,
	})
	expectLines(t, runCheck(t, dir, "allocguard"),
		"internal/dec/inflate.go:16", "internal/dec/inflate.go:26")
}

// TestInterprocTransitiveAlloc: taint crosses two call hops before
// reaching the allocation, and a callee that validates its parameter
// (returning a non-nil error on out-of-range) sanitizes the caller's
// value on the err == nil path.
func TestInterprocTransitiveAlloc(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/dec/chain.go": `package dec

import (
	"encoding/binary"
	"errors"
)

func alloc(n uint64) []byte {
	return make([]byte, n)
}

func table(n uint64) []byte {
	return alloc(n)
}

func Build(data []byte) []byte {
	n := binary.LittleEndian.Uint64(data)
	return table(n)
}

func checkCount(n uint64, limit int) error {
	if n > uint64(limit) {
		return errors.New("dec: count out of range")
	}
	return nil
}

func BuildChecked(data []byte) []byte {
	n := binary.LittleEndian.Uint64(data)
	if err := checkCount(n, len(data)); err != nil {
		return nil
	}
	return table(n)
}
`,
	})
	expectLines(t, runCheck(t, dir, "allocguard"), "internal/dec/chain.go:18")
}

// TestInterprocFills: a callee that decodes stream bytes into a struct
// through a pointer parameter taints the caller's struct field; bounding
// the field afterwards sanitizes it.
func TestInterprocFills(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/dec/fill.go": `package dec

import "encoding/binary"

type header struct {
	n int
}

func parseHeader(h *header, data []byte) {
	h.n = int(binary.LittleEndian.Uint32(data))
}

func Expand(data []byte) []int {
	var h header
	parseHeader(&h, data)
	return make([]int, h.n)
}

func ExpandChecked(data []byte) []int {
	var h header
	parseHeader(&h, data)
	if h.n < 0 || h.n > len(data) {
		return nil
	}
	return make([]int, h.n)
}
`,
	})
	expectLines(t, runCheck(t, dir, "allocguard"), "internal/dec/fill.go:16")
}

// TestInterprocMethodDispatch: taint survives method calls on concrete
// receiver types, both into a method sink and out of a method result.
func TestInterprocMethodDispatch(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/dec/method.go": `package dec

import "encoding/binary"

type cursor struct {
	data []byte
	off  int
}

func (c *cursor) u32() uint32 {
	v := binary.LittleEndian.Uint32(c.data[c.off:])
	c.off += 4
	return v
}

type arena struct {
	slabs [][]byte
}

func (a *arena) grow(n uint32) {
	a.slabs = append(a.slabs, make([]byte, n))
}

func Parse(data []byte) *arena {
	c := &cursor{data: data}
	a := &arena{}
	a.grow(c.u32())
	return a
}

func ParseChecked(data []byte) *arena {
	c := &cursor{data: data}
	a := &arena{}
	n := c.u32()
	if n > uint32(len(data)) {
		return nil
	}
	a.grow(n)
	return a
}
`,
	})
	expectLines(t, runCheck(t, dir, "allocguard"), "internal/dec/method.go:27")
}

// TestInterprocParamIndexPanicguardUnaffected: two findings of the same
// check at the same call site (both parameters flow to sinks) must come
// out in deterministic message order, byte-identical run to run.
func TestFindingsDeterministicOrder(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/dec/two.go": `package dec

import "encoding/binary"

func allocBoth(a, b uint64) ([]byte, []byte) {
	x := make([]byte, a)
	y := make([]byte, b)
	return x, y
}

func Two(data []byte) ([]byte, []byte) {
	n := binary.LittleEndian.Uint64(data)
	m := binary.LittleEndian.Uint64(data[8:])
	return allocBoth(n, m)
}
`,
	})
	var prev []Finding
	for round := 0; round < 3; round++ {
		got := runCheck(t, dir, "allocguard")
		if len(got) != 2 {
			t.Fatalf("round %d: got %d findings %v, want 2", round, len(got), got)
		}
		if got[0].Line != got[1].Line || got[0].Check != got[1].Check {
			t.Fatalf("round %d: expected two findings at one call site, got %v", round, got)
		}
		if got[0].Message >= got[1].Message {
			t.Errorf("round %d: findings not in message order: %q then %q", round, got[0].Message, got[1].Message)
		}
		if round > 0 {
			for i := range got {
				if got[i] != prev[i] {
					t.Errorf("round %d: finding %d differs from round %d: %v vs %v", round, i, round-1, got[i], prev[i])
				}
			}
		}
		prev = got
	}
}

// TestInterprocRaceguardSites: a raceguard finding stays anchored to the
// racy write inside the worker no matter how deep in a helper chain the
// dispatch sits — the interprocedural machinery must not relocate or
// duplicate it at call sites the way summary-attributed taint findings
// are.
func TestInterprocRaceguardSites(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/parallel/parallel.go": fixtureParallel,
		"internal/core/decode.go": `package core

import "fixture/internal/parallel"

func scatter(out []float64, k int) error {
	return parallel.For(nil, len(out), 4, 1, func(i int) error {
		out[k] = float64(i)
		return nil
	})
}

func Decode(data []byte, out []float64) error {
	return scatter(out, len(data))
}
`,
	})
	expectLines(t, runCheck(t, dir, "raceguard"), "internal/core/decode.go:7")
}
