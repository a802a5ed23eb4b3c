// Package obs is the pipeline observability layer: monotonic stage spans,
// atomic counters, and pprof CPU-profile attribution for the
// cp-extraction → tracing → prediction/quantization → entropy → correction
// pipeline.
//
// The design contract, relied on by the archive-determinism guarantee:
//
//   - Zero cost by default. Every method is valid on a nil *Collector and
//     reduces to calling the wrapped function (or to nothing); no atomics,
//     clock reads, or allocations happen on the nil path.
//   - Race free. Counters are atomic; spans append under a mutex. Any
//     worker count may record concurrently.
//   - Non-perturbing. Nothing a Collector measures ever feeds back into
//     kernel behavior: spans are monotonic deltas from a per-collector
//     epoch and wall-clock values never reach encoder output, so archives
//     are byte-identical with observability on or off (enforced by
//     TestObservedArchivesByteIdentical and compatible with the tsplint
//     determinism check — no time.Now lives in a kernel package).
//
// Stage work runs under a pprof label ("stage"=<name>), so a CPU profile
// captured around an observed compression attributes samples to pipeline
// phases; pprof labels are inherited by goroutines the stage spawns, which
// covers the internal/parallel worker pools.
package obs

import (
	"context"
	"encoding/json"
	"io"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one pipeline phase. The String names are the stable
// identifiers used in snapshots and pprof labels.
type Stage uint8

const (
	// StageCPExtract is critical-point extraction over the input field.
	StageCPExtract Stage = iota
	// StageTrace is separatrix tracing (original and decompressed data).
	StageTrace
	// StagePredictQuant is the layer sweep: per-vertex bound derivation
	// (ebound), prediction and quantization, region- and wave-parallel,
	// and the serial emit that observes each region's symbols into the
	// section histograms.
	StagePredictQuant
	// StageHistogram builds a section's canonical Huffman table from its
	// finished histogram (huffman.TableFromHistogram), once per section.
	StageHistogram
	// StageEntropyEncode is chunked Huffman+DEFLATE serialization.
	StageEntropyEncode
	// StageEntropyDecode is chunk-parallel inflate + Huffman decode.
	StageEntropyDecode
	// StageReconstruct is the region-parallel value reconstruction.
	StageReconstruct
	// StageCorrection is TspSZ-i verification and correction: round 0, the
	// first check of every separatrix, then the iterative correction loop
	// with its re-verification rounds.
	StageCorrection
	// StageContainer is TspSZ container assembly (patch packing included).
	StageContainer
	// StagePatchApply is the decode-side TspSZ-i patch application.
	StagePatchApply
	// StageFrame wraps one frame of a temporal sequence.
	StageFrame
	numStages
)

var stageNames = [numStages]string{
	"cp-extract",
	"trace",
	"predict-quantize",
	"histogram",
	"entropy-encode",
	"entropy-decode",
	"reconstruct",
	"correction",
	"container",
	"patch-apply",
	"frame",
}

// String returns the stable stage identifier.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Counter identifies one atomic counter. Byte counters marked "partition"
// split the archive exactly: their sum equals CtrBytesOut for any archive
// produced with a collector attached end to end (see Snapshot.SectionSum).
type Counter uint8

const (
	// CtrBytesIn is the uncompressed input payload size.
	CtrBytesIn Counter = iota
	// CtrBytesOut is the total archive size.
	CtrBytesOut
	// CtrBytesStreamHeader is the cpSZ fixed header + CRC (partition).
	CtrBytesStreamHeader
	// CtrBytesSectionEb is the encoded error-bound symbol section (partition).
	CtrBytesSectionEb
	// CtrBytesSectionQuant is the encoded quantization-code section (partition).
	CtrBytesSectionQuant
	// CtrBytesSectionRaw is the packed verbatim-float section (partition).
	CtrBytesSectionRaw
	// CtrBytesStreamTrailer is the cpSZ whole-stream trailer (partition).
	CtrBytesStreamTrailer
	// CtrBytesContainer is the TspSZ container framing around the inner
	// stream: header, CRCs, lengths, packed patch, trailer (partition).
	CtrBytesContainer
	// CtrBytesPatch is the packed TspSZ-i correction patch alone (a
	// sub-measure of CtrBytesContainer, not part of the partition).
	CtrBytesPatch
	// CtrBytesStreamSpill is the streaming compressor's spill at the end of
	// its sweep: the region streams held, entropy-coded, until the section
	// tables exist (a working-set measure, not part of the partition).
	CtrBytesStreamSpill
	// CtrChunksEncoded counts entropy chunks Huffman+DEFLATE packed.
	CtrChunksEncoded
	// CtrChunksDecoded counts entropy chunks verified + inflated.
	CtrChunksDecoded
	// CtrLosslessVertices counts vertices stored verbatim.
	CtrLosslessVertices
	// CtrCorrectionIters counts TspSZ-i outer correction rounds.
	CtrCorrectionIters
	// CtrCorrectionTraj counts trajectory fixes attempted across rounds.
	CtrCorrectionTraj
	// CtrPatchedVertices is the size of the TspSZ-i correction set V.
	CtrPatchedVertices
	// CtrDispatches counts internal/parallel loop dispatches.
	CtrDispatches
	// CtrDispatchGoroutines counts worker goroutines those dispatches
	// launched (after pool clamping).
	CtrDispatchGoroutines
	// CtrDispatchBusyNs is cumulative wall time spent inside parallel
	// dispatches (overlapping dispatches count independently).
	CtrDispatchBusyNs
	numCounters
)

var counterNames = [numCounters]string{
	"bytes_in",
	"bytes_out",
	"bytes_stream_header",
	"bytes_section_eb",
	"bytes_section_quant",
	"bytes_section_raw",
	"bytes_stream_trailer",
	"bytes_container",
	"bytes_patch",
	"bytes_stream_spill",
	"chunks_encoded",
	"chunks_decoded",
	"lossless_vertices",
	"correction_iterations",
	"correction_trajectories",
	"patched_vertices",
	"parallel_dispatches",
	"parallel_goroutines",
	"parallel_busy_ns",
}

// partitionCounters are the byte counters that split an archive exactly.
var partitionCounters = []Counter{
	CtrBytesStreamHeader,
	CtrBytesSectionEb,
	CtrBytesSectionQuant,
	CtrBytesSectionRaw,
	CtrBytesStreamTrailer,
	CtrBytesContainer,
}

// String returns the stable counter identifier.
func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "unknown"
}

// span is one completed stage interval, timed as monotonic deltas from the
// collector epoch.
type span struct {
	stage   Stage
	start   time.Duration
	dur     time.Duration
	workers int
	items   int64
}

// Collector gathers spans and counters for one compression or
// decompression. A nil *Collector is valid everywhere and costs nothing.
// A Collector must not be shared by concurrent *independent* operations
// (their spans would interleave), but any number of goroutines within one
// operation may record into it.
type Collector struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span

	counters [numCounters]atomic.Int64
}

// New returns a Collector whose span timestamps are monotonic offsets from
// this call.
func New() *Collector {
	return &Collector{epoch: time.Now()}
}

// Add increments a counter; no-op on a nil Collector.
func (c *Collector) Add(ctr Counter, n int64) {
	if c == nil {
		return
	}
	c.counters[ctr].Add(n)
}

// Do runs fn as one stage span: the interval is recorded with the given
// worker count and item count, and fn executes under a pprof
// "stage"=<name> label so CPU profiles attribute its samples (including
// goroutines it spawns) to the stage. On a nil Collector fn runs directly
// with no label and no clock reads.
func (c *Collector) Do(stage Stage, workers int, items int64, fn func() error) error {
	if c == nil {
		return fn()
	}
	start := time.Since(c.epoch)
	var err error
	pprof.Do(context.Background(), pprof.Labels("stage", stage.String()), func(context.Context) {
		err = fn()
	})
	c.record(stage, start, time.Since(c.epoch)-start, workers, items)
	return err
}

func (c *Collector) record(stage Stage, start, dur time.Duration, workers int, items int64) {
	c.mu.Lock()
	c.spans = append(c.spans, span{stage: stage, start: start, dur: dur, workers: workers, items: items})
	c.mu.Unlock()
}

// Dispatch is a per-dispatch hook for internal/parallel (wire it with
// parallel.SetHook(c.Dispatch)): it counts dispatches, the goroutines they
// launch (after pool clamping), and cumulative in-dispatch wall time. The
// returned func is invoked when the dispatch completes; a nil return means
// no completion callback. Safe on a nil Collector.
func (c *Collector) Dispatch(op string, n, workers int) func() {
	if c == nil {
		return nil
	}
	c.counters[CtrDispatches].Add(1)
	c.counters[CtrDispatchGoroutines].Add(int64(workers))
	start := time.Since(c.epoch)
	return func() {
		c.counters[CtrDispatchBusyNs].Add(int64(time.Since(c.epoch) - start))
	}
}

// SpanSnapshot is one completed stage interval in exportable form.
type SpanSnapshot struct {
	// Stage is the stable stage name.
	Stage string `json:"stage"`
	// StartNs is the monotonic offset from collector creation.
	StartNs int64 `json:"start_ns"`
	// DurationNs is the span length.
	DurationNs int64 `json:"duration_ns"`
	// Workers is the worker bound the stage ran with.
	Workers int `json:"workers"`
	// Items is the stage's unit-of-work count (vertices, chunks,
	// trajectories — see the stage taxonomy in DESIGN.md §9).
	Items int64 `json:"items"`
}

// Snapshot is a stable, self-describing document of everything a Collector
// gathered. Counters always carry every known key (zeros included) so the
// schema does not depend on the workload, and spans are ordered by
// (start, stage name, duration) so concurrent recordings serialize
// deterministically given deterministic timings.
type Snapshot struct {
	Spans    []SpanSnapshot   `json:"spans"`
	Counters map[string]int64 `json:"counters"`
}

// Snapshot captures the collector's current state. Returns nil on a nil
// Collector. Safe to call concurrently with recording (it observes a
// consistent prefix).
func (c *Collector) Snapshot() *Snapshot {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	spans := make([]span, len(c.spans))
	copy(spans, c.spans)
	c.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		if spans[i].stage != spans[j].stage {
			return spans[i].stage < spans[j].stage
		}
		return spans[i].dur < spans[j].dur
	})
	s := &Snapshot{
		Spans:    make([]SpanSnapshot, len(spans)),
		Counters: make(map[string]int64, numCounters),
	}
	for i, sp := range spans {
		s.Spans[i] = SpanSnapshot{
			Stage:      sp.stage.String(),
			StartNs:    sp.start.Nanoseconds(),
			DurationNs: sp.dur.Nanoseconds(),
			Workers:    sp.workers,
			Items:      sp.items,
		}
	}
	for ctr := Counter(0); ctr < numCounters; ctr++ {
		s.Counters[ctr.String()] = c.counters[ctr].Load()
	}
	return s
}

// Stages returns the distinct stage names present, in first-start order.
func (s *Snapshot) Stages() []string {
	seen := make(map[string]bool)
	var out []string
	for _, sp := range s.Spans {
		if !seen[sp.Stage] {
			seen[sp.Stage] = true
			out = append(out, sp.Stage)
		}
	}
	return out
}

// HasStage reports whether at least one span of the named stage exists.
func (s *Snapshot) HasStage(name string) bool {
	for _, sp := range s.Spans {
		if sp.Stage == name {
			return true
		}
	}
	return false
}

// SectionSum sums the byte-partition counters (stream header, the three
// entropy sections, stream trailer, container framing). For an archive
// produced with the collector attached end to end it equals
// Counters["bytes_out"].
func (s *Snapshot) SectionSum() int64 {
	var sum int64
	for _, ctr := range partitionCounters {
		sum += s.Counters[ctr.String()]
	}
	return sum
}

// WriteJSON writes the snapshot as indented JSON. encoding/json sorts map
// keys, so the output is byte-stable for identical snapshot contents.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
