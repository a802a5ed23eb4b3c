package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"sync"
	"testing"
)

// Every method must be a no-op (or a plain passthrough) on a nil Collector.
func TestNilCollector(t *testing.T) {
	var c *Collector
	c.Add(CtrBytesOut, 42)
	ran := false
	if err := c.Do(StageTrace, 4, 100, func() error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("Do on nil collector did not run fn")
	}
	wantErr := errors.New("boom")
	if err := c.Do(StageTrace, 1, 0, func() error { return wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("Do error = %v, want %v", err, wantErr)
	}
	if done := c.Dispatch("For", 10, 2); done != nil {
		t.Fatal("Dispatch on nil collector returned a callback")
	}
	if c.Snapshot() != nil {
		t.Fatal("Snapshot on nil collector is not nil")
	}
}

func TestCountersAndSpans(t *testing.T) {
	c := New()
	c.Add(CtrBytesOut, 100)
	c.Add(CtrBytesOut, 23)
	if err := c.Do(StageEntropyEncode, 8, 1000, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if done := c.Dispatch("Pipeline", 50, 4); done != nil {
		done()
	}
	s := c.Snapshot()
	if s.Counters["bytes_out"] != 123 {
		t.Fatalf("bytes_out = %d, want 123", s.Counters["bytes_out"])
	}
	if s.Counters["parallel_dispatches"] != 1 || s.Counters["parallel_goroutines"] != 4 {
		t.Fatalf("dispatch counters = %d/%d, want 1/4",
			s.Counters["parallel_dispatches"], s.Counters["parallel_goroutines"])
	}
	if len(s.Spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(s.Spans))
	}
	sp := s.Spans[0]
	if sp.Stage != "entropy-encode" || sp.Workers != 8 || sp.Items != 1000 {
		t.Fatalf("span = %+v", sp)
	}
	if sp.DurationNs < 0 || sp.StartNs < 0 {
		t.Fatalf("span has negative timing: %+v", sp)
	}
	// Every known counter key is present even when zero.
	if len(s.Counters) != int(numCounters) {
		t.Fatalf("snapshot has %d counter keys, want %d", len(s.Counters), numCounters)
	}
	if _, ok := s.Counters["correction_iterations"]; !ok {
		t.Fatal("zero counter correction_iterations missing from snapshot")
	}
}

// Do must return fn's error after recording the span.
func TestDoPropagatesError(t *testing.T) {
	c := New()
	wantErr := errors.New("stage failed")
	if err := c.Do(StageReconstruct, 1, 0, func() error { return wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("Do error = %v, want %v", err, wantErr)
	}
	if got := len(c.Snapshot().Spans); got != 1 {
		t.Fatalf("failed stage recorded %d spans, want 1", got)
	}
}

func TestConcurrentRecording(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Add(CtrChunksEncoded, 1)
				_ = c.Do(StageHistogram, 1, 1, func() error { return nil })
				if done := c.Dispatch("For", 1, 1); done != nil {
					done()
				}
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Counters["chunks_encoded"] != 800 {
		t.Fatalf("chunks_encoded = %d, want 800", s.Counters["chunks_encoded"])
	}
	if len(s.Spans) != 800 {
		t.Fatalf("got %d spans, want 800", len(s.Spans))
	}
}

func TestSnapshotHelpers(t *testing.T) {
	c := New()
	_ = c.Do(StageCPExtract, 1, 10, func() error { return nil })
	_ = c.Do(StageTrace, 2, 20, func() error { return nil })
	_ = c.Do(StageTrace, 2, 5, func() error { return nil })
	c.Add(CtrBytesStreamHeader, 32)
	c.Add(CtrBytesSectionEb, 100)
	c.Add(CtrBytesSectionQuant, 200)
	c.Add(CtrBytesSectionRaw, 50)
	c.Add(CtrBytesStreamTrailer, 12)
	c.Add(CtrBytesContainer, 40)
	c.Add(CtrBytesPatch, 999) // sub-measure, must NOT join the partition
	s := c.Snapshot()
	if got := s.Stages(); len(got) != 2 || got[0] != "cp-extract" || got[1] != "trace" {
		t.Fatalf("Stages() = %v", got)
	}
	if !s.HasStage("trace") || s.HasStage("correction") {
		t.Fatal("HasStage misreports")
	}
	if got := s.SectionSum(); got != 434 {
		t.Fatalf("SectionSum = %d, want 434", got)
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if round.Counters["bytes_section_quant"] != 200 || len(round.Spans) != 3 {
		t.Fatalf("roundtrip lost data: %+v", round)
	}
}

// Spans sort by (start, stage, duration) so snapshots of deterministic
// timings serialize deterministically.
func TestSnapshotSpanOrder(t *testing.T) {
	c := New()
	c.record(StageTrace, 100, 5, 1, 0)
	c.record(StageCPExtract, 100, 5, 1, 0)
	c.record(StageCPExtract, 50, 9, 1, 0)
	s := c.Snapshot()
	want := []string{"cp-extract", "cp-extract", "trace"}
	for i, sp := range s.Spans {
		if sp.Stage != want[i] {
			t.Fatalf("span %d = %s, want %s (order %v)", i, sp.Stage, want[i], s.Spans)
		}
	}
	if s.Spans[0].StartNs != 50 {
		t.Fatalf("earliest span first: got start %d", s.Spans[0].StartNs)
	}
}

func TestStageAndCounterNames(t *testing.T) {
	for st := Stage(0); st < numStages; st++ {
		if st.String() == "unknown" || st.String() == "" {
			t.Fatalf("stage %d has no name", st)
		}
	}
	if Stage(numStages).String() != "unknown" {
		t.Fatal("out-of-range stage must stringify as unknown")
	}
	for ctr := Counter(0); ctr < numCounters; ctr++ {
		if ctr.String() == "unknown" || ctr.String() == "" {
			t.Fatalf("counter %d has no name", ctr)
		}
	}
	if Counter(numCounters).String() != "unknown" {
		t.Fatal("out-of-range counter must stringify as unknown")
	}
}
