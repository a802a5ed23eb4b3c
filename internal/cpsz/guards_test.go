package cpsz

import (
	"errors"
	"testing"

	"tspsz/internal/streamerr"
)

// TestSectionParsersRejectBadOffset pins the section reader's entry guard:
// it validates its cursor against the stream before indexing, so an offset
// corrupted anywhere up the call chain becomes a typed error, not a panic.
func TestSectionParsersRejectBadOffset(t *testing.T) {
	data := []byte{1, 2, 3, 4}
	s := getScratch()
	defer putScratch(s)
	for _, off := range []int{-1, len(data) + 1, 1 << 30} {
		for si := range sectionNames {
			if _, _, err := readSection(s, data, off, si); !errors.Is(err, streamerr.ErrCorrupt) {
				t.Errorf("readSection(off=%d, %s): got %v, want ErrCorrupt", off, sectionNames[si], err)
			}
		}
	}
	// A valid offset still parses: the guard is a boundary, not a
	// behavior change (empty symbol section = count 0).
	if _, off, err := readSection(s, []byte{0}, 0, 0); err != nil || off != 1 {
		t.Errorf("readSection on empty section: off=%d err=%v", off, err)
	}
}
