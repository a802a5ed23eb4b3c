package analysis

import (
	"strings"
	"testing"
)

// TestSuppressMultipleChecks: one //lint:allow comment may name several
// checks, comma-separated, and suppresses each of them on that line.
func TestSuppressMultipleChecks(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/dec/multi.go": `package dec

import "encoding/binary"

func Pick(data []byte) byte {
	n := int(binary.LittleEndian.Uint16(data))
	//lint:allow indexguard,allocguard callers hand in exactly 2+n bytes
	return make([]byte, n)[0] + data[n]
}
`,
	})
	if got := runCheck(t, dir, "allocguard"); len(got) != 0 {
		t.Errorf("allocguard not suppressed: %v", got)
	}
	if got := runCheck(t, dir, "indexguard"); len(got) != 0 {
		t.Errorf("indexguard not suppressed: %v", got)
	}
}

// TestSuppressPlacement: a directive works trailing the flagged line or on
// the line directly above it, but not from two lines away.
func TestSuppressPlacement(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/dec/place.go": `package dec

import "encoding/binary"

func Trailing(data []byte) []byte {
	n := binary.LittleEndian.Uint16(data)
	return make([]byte, n) //lint:allow allocguard uint16 bounds this to 64 KiB
}

func Above(data []byte) []byte {
	n := binary.LittleEndian.Uint16(data)
	//lint:allow allocguard uint16 bounds this to 64 KiB
	return make([]byte, n)
}

func TooFar(data []byte) []byte {
	n := binary.LittleEndian.Uint16(data)
	//lint:allow allocguard this comment is two lines above the sink

	return make([]byte, n)
}
`,
	})
	expectLines(t, runCheck(t, dir, "allocguard"), "internal/dec/place.go:20")
}

// TestSuppressUnknownCheck: a typoed check name must surface as a finding
// (check "allow"), not be silently accepted, and must not suppress
// anything.
func TestSuppressUnknownCheck(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/dec/unknown.go": `package dec

import "encoding/binary"

func Oops(data []byte) []byte {
	n := binary.LittleEndian.Uint16(data)
	//lint:allow allocgaurd typo in the check name
	return make([]byte, n)
}
`,
	})
	got := runCheck(t, dir, "allocguard")
	if len(got) != 2 {
		t.Fatalf("got %d findings %v, want 2 (unknown-name report + unsuppressed allocguard)", len(got), got)
	}
	var sawAllow, sawAlloc bool
	for _, f := range got {
		switch f.Check {
		case "allow":
			sawAllow = true
			if !strings.Contains(f.Message, `"allocgaurd"`) {
				t.Errorf("allow finding does not name the bad check: %q", f.Message)
			}
		case "allocguard":
			sawAlloc = true
		}
	}
	if !sawAllow || !sawAlloc {
		t.Errorf("findings %v, want one allow and one allocguard", got)
	}
}

// TestSuppressMixedKnownUnknown: the known names of a directive still
// suppress even when an unknown name rides along (which is reported).
func TestSuppressMixedKnownUnknown(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/dec/mixed.go": `package dec

import "encoding/binary"

func Mixed(data []byte) []byte {
	n := binary.LittleEndian.Uint16(data)
	//lint:allow allocguard,nosuchcheck bounded by uint16
	return make([]byte, n)
}
`,
	})
	got := runCheck(t, dir, "allocguard")
	if len(got) != 1 || got[0].Check != "allow" {
		t.Fatalf("got %v, want exactly the unknown-name report", got)
	}
}

// TestSuppressUnknownCheckListsAllNames: the unknown-name diagnostic must
// enumerate every valid check name (including raceguard, added in PR 6),
// so the fix for a typoed directive is always on screen.
func TestSuppressUnknownCheckListsAllNames(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/dec/names.go": `package dec

import "encoding/binary"

func Oops(data []byte) []byte {
	n := binary.LittleEndian.Uint16(data)
	//lint:allow raceguardd typo
	return make([]byte, n)
}
`,
	})
	got := runCheck(t, dir, "allocguard")
	var msg string
	for _, f := range got {
		if f.Check == "allow" {
			msg = f.Message
		}
	}
	if msg == "" {
		t.Fatalf("no allow finding in %v", got)
	}
	for _, name := range CheckNames() {
		if !strings.Contains(msg, name) {
			t.Errorf("diagnostic %q does not list check %q", msg, name)
		}
	}
	if len(CheckNames()) != 10 || CheckNames()[9] != "leakguard" {
		t.Errorf("CheckNames() = %v, want 10 names ending in leakguard", CheckNames())
	}
}
