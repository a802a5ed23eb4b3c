# Convenience targets for the TspSZ repository.

GO ?= go

.PHONY: all build vet lint fma-check test bench bench-smoke bench-diff bench-full race fuzz-smoke fault-sweep profile-smoke stream-suite cover experiments figures clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-specific invariants (robust float comparisons, centralized
# concurrency, deterministic kernels, checked codec I/O, no lossy
# narrowing, taint-tracked stream values: no allocation size or slice
# index from the compressed stream without a dominating bound check,
# provably disjoint worker writes, and resource lifetimes: pooled
# buffers released exactly once with no use-after-put or escape,
# Closers/tickers/profiles released on all paths, no goroutine whose
# only exit is a bare channel op). See
# `go run ./cmd/tsplint -help` for the full 10-check list and the
# //lint:allow suppression syntax.
lint:
	$(GO) run ./cmd/tsplint ./...

# Fusion gate: Go may fuse x*y + z into one multiply-add with a single
# rounding on arm64, ppc64le, s390x and riscv64 (never on amd64), which
# would move traces, and so the involved-vertex sets and archives, off the
# amd64 ones. Writing each product as float64(x*y), the Go spec's fusion
# barrier, prevents it. Cross-compile the tracer's packages, the quantizer
# (Quantize and Reconstruct, which decode runs) and core (dist picks
# fixTraj's divergence point) for those architectures and fail on any
# fused multiply-add or -subtract in their assembly, or when none of them
# printed assembly.
FMA_PKGS = ./internal/grid ./internal/field/... ./internal/integrate ./internal/quantizer ./internal/core
FMA_ARCHS = arm64 ppc64le s390x riscv64
fma-check:
	@for arch in $(FMA_ARCHS); do \
		asm=$$(GOARCH=$$arch $(GO) build -gcflags=-S $(FMA_PKGS) 2>&1) || { echo "$$asm" >&2; exit 1; }; \
		echo "$$asm" | grep -q 'STEXT' || { echo "fma-check: no assembly listed for $$arch" >&2; exit 1; }; \
		fused=$$(echo "$$asm" | grep -E '\sFN?M(ADD|SUB)[A-Z]*\s'); \
		if [ -n "$$fused" ]; then echo "fma-check: fused multiply-adds on $$arch:" >&2; echo "$$fused" >&2; exit 1; fi; \
	done
	@echo "fma-check: no fused multiply-adds in $(FMA_PKGS) on $(FMA_ARCHS)"

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# 10-second native-fuzzing smoke per decoder entry point, plus the
# differential targets holding frechet.WithinTol to the full reachability DP,
# ebound.VertexBound/VertexBoundSoS to the pre-linearization derivation,
# the tracer's narrowed absorption probe to a scan of every bucket, the
# cell-caching field.Sampler to point location from scratch, and the
# cpSZ compression engine to the whole-field reference encoder.
# Crashing inputs land in <pkg>/testdata/fuzz/<Target>/ — CI uploads them
# as artifacts.
fuzz-smoke:
	$(GO) test -fuzz='^FuzzWithinTol$$' -fuzztime=10s -run='^$$' ./internal/frechet
	$(GO) test -fuzz='^FuzzVertexBound$$' -fuzztime=10s -run='^$$' ./internal/ebound
	$(GO) test -fuzz='^FuzzNear$$' -fuzztime=10s -run='^$$' ./internal/integrate
	$(GO) test -fuzz='^FuzzSample$$' -fuzztime=10s -run='^$$' ./internal/field
	$(GO) test -fuzz='^FuzzDecode$$' -fuzztime=10s -run='^$$' ./internal/huffman
	$(GO) test -fuzz='^FuzzDecode$$' -fuzztime=10s -run='^$$' ./internal/flatedec
	$(GO) test -fuzz='^FuzzDecompress$$' -fuzztime=10s -run='^$$' ./internal/core
	$(GO) test -fuzz='^FuzzDecompressSequence$$' -fuzztime=10s -run='^$$' ./internal/core
	$(GO) test -fuzz='^FuzzSalvage$$' -fuzztime=10s -run='^$$' ./internal/core
	$(GO) test -fuzz='^FuzzDecompressTruncated$$' -fuzztime=10s -run='^$$' ./internal/cpsz
	$(GO) test -fuzz='^FuzzSalvage$$' -fuzztime=10s -run='^$$' ./internal/cpsz
	$(GO) test -fuzz='^FuzzCompressEngine$$' -fuzztime=10s -run='^$$' ./internal/cpsz

# Byte-level fault-injection sweeps under the race detector: every byte
# flipped, every offset truncated, seeded random corruption — decoded with
# parallel workers through both the cpSZ layer and the public API. -short
# strides the byte sweep for CI; run without it for the exhaustive pass.
# The salvage sweep corrupts every single chunk of a multi-chunk archive
# and requires every other chunk back bit-exactly; the VerifyAll tests
# hold the exhaustive scan's first failure to the class strict decode
# reports; the cancellation sweep fires mid-flight cancels under -race to
# prove no goroutine or pooled buffer leaks on the abandon path.
fault-sweep:
	$(GO) test -race -short -run='^TestFaultSweep$$' ./internal/cpsz
	$(GO) test -race -short -run='^(TestSalvage|TestVerifyAll)' ./internal/cpsz
	$(GO) test -race -short -run='^(TestCoreSalvage|TestCoreVerifyAll)' ./internal/core
	$(GO) test -race -short -run='^(TestMid(Decode|Compress|Sequence)Cancellation|TestCancellationIsRetryable|TestRootSalvage)$$' .
	$(GO) test -race -short -run='^(TestFaultSweepPublicAPI|TestReadFieldFaultyReader)$$' .

# Observability smoke: run a small compress + decompress through the real
# CLI with -stats and -cpuprofile, then assert the stats JSON parses (jq),
# names every expected pipeline stage, and that the byte-partition counters
# sum exactly to the archive size. A -stream compress then checks the
# streaming stats: one predict-quantize span (the single layer sweep), an
# entropy-encode span, the byte partition, and a non-empty spill. CI uploads
# the JSON as an artifact.
PROFILE_SMOKE_STAGES = cp-extract trace predict-quantize histogram entropy-encode correction container
profile-smoke:
	$(GO) run ./cmd/tspsz gen -dataset cba -scale 1 -out profile_smoke.tspf
	$(GO) run ./cmd/tspsz compress -in profile_smoke.tspf -out profile_smoke.tsz -variant i -eb 5e-4 \
		-stats=profile_smoke_stats.json -cpuprofile=profile_smoke.pprof
	$(GO) run ./cmd/tspsz decompress -in profile_smoke.tsz -out profile_smoke_dec.tspf \
		-stats=profile_smoke_decode_stats.json
	for s in $(PROFILE_SMOKE_STAGES); do \
		jq -e --arg s $$s '[.spans[].stage] | index($$s) != null' profile_smoke_stats.json >/dev/null \
			|| { echo "profile-smoke: stage $$s missing from stats JSON" >&2; exit 1; }; \
	done
	jq -e '.counters | (.bytes_stream_header + .bytes_section_eb + .bytes_section_quant + .bytes_section_raw + .bytes_stream_trailer + .bytes_container) == .bytes_out' \
		profile_smoke_stats.json >/dev/null \
		|| { echo "profile-smoke: byte partition does not sum to bytes_out" >&2; exit 1; }
	jq -e '[.spans[].stage] | (index("entropy-decode") != null) and (index("reconstruct") != null)' \
		profile_smoke_decode_stats.json >/dev/null \
		|| { echo "profile-smoke: decode stages missing from stats JSON" >&2; exit 1; }
	test -s profile_smoke.pprof
	$(GO) run ./cmd/tspsz gen -dataset hurricane -scale 0.1 -out profile_smoke_stream.tspf
	$(GO) run ./cmd/tspsz compress -in profile_smoke_stream.tspf -out profile_smoke_stream.tsz -stream -variant 1 \
		-stats=profile_smoke_stream_stats.json
	jq -e '[.spans[] | select(.stage == "predict-quantize")] | length == 1' profile_smoke_stream_stats.json >/dev/null \
		|| { echo "profile-smoke: streaming compress must run exactly one predict-quantize sweep" >&2; exit 1; }
	jq -e '[.spans[].stage] | index("entropy-encode") != null' profile_smoke_stream_stats.json >/dev/null \
		|| { echo "profile-smoke: entropy-encode missing from streaming stats JSON" >&2; exit 1; }
	jq -e '.counters | (.bytes_stream_header + .bytes_section_eb + .bytes_section_quant + .bytes_section_raw + .bytes_stream_trailer + .bytes_container) == .bytes_out' \
		profile_smoke_stream_stats.json >/dev/null \
		|| { echo "profile-smoke: streaming byte partition does not sum to bytes_out" >&2; exit 1; }
	jq -e '.counters.bytes_stream_spill > 0' profile_smoke_stream_stats.json >/dev/null \
		|| { echo "profile-smoke: bytes_stream_spill missing or zero in streaming stats JSON" >&2; exit 1; }
	@echo "profile-smoke: OK"

# Streaming acceptance: the byte-identity differentials (streamed archive
# equal to the in-memory one at several worker counts, from in-memory and
# file-backed fetchers) and the cancellation-leak check under the race
# detector, then the out-of-core memory gate — peak heap must stay under
# the size of a 192 MiB procedural field that is never resident. The
# memory gate runs without -race (the race runtime owns its own heap
# accounting) and not -short (the gate is the point).
stream-suite:
	$(GO) test -race -run='^TestStream' ./internal/cpsz
	$(GO) test -race -run='^(TestCompressStream|TestCompressSequenceStream|TestSequenceRejectsTransposedFrame)' ./internal/core
	$(GO) test -race -run='^(TestStreamDifferential|TestStreamCancellationNoLeak)$$' .
	$(GO) test -run='^TestStreamMemoryBounded$$' -v .

# Perf-trajectory harness: run the key hot-path benchmarks BENCH_COUNT
# times each and record the mean ns/op, B/op, and allocs/op per benchmark
# in $(BENCH_JSON). A bare `make bench` writes the git-ignored
# bench_out.json; a baseline is recorded only when named, e.g.
# `make bench BENCH_JSON=BENCH_prNN.json`, and that file is committed so
# later changes diff their run against it instead of guessing.
BENCH_JSON ?= bench_out.json
BENCH_COUNT ?= 3
BENCH_TIME ?= 1s
BENCH_BASELINE ?= BENCH_pr19.json

bench:
	$(GO) test -run='^$$' -bench='^(BenchmarkCompressAbs2D|BenchmarkCompressWindow3D|BenchmarkDecompressAbs2D|BenchmarkSerialize|BenchmarkParse)$$' \
		-benchmem -count=$(BENCH_COUNT) -benchtime=$(BENCH_TIME) ./internal/cpsz | tee bench_raw.txt
	$(GO) test -run='^$$' -bench='^(BenchmarkEncode|BenchmarkDecode)$$' \
		-benchmem -count=$(BENCH_COUNT) -benchtime=$(BENCH_TIME) ./internal/huffman | tee -a bench_raw.txt
	$(GO) test -run='^$$' -bench='^BenchmarkWithinTol$$' \
		-benchmem -count=$(BENCH_COUNT) -benchtime=$(BENCH_TIME) ./internal/frechet | tee -a bench_raw.txt
	$(GO) test -run='^$$' -bench='^BenchmarkVertexBound$$' \
		-benchmem -count=$(BENCH_COUNT) -benchtime=$(BENCH_TIME) ./internal/ebound | tee -a bench_raw.txt
	$(GO) test -run='^$$' -bench='^(BenchmarkTraceSeparatrices|BenchmarkTraceWindow3D)$$' \
		-benchmem -count=$(BENCH_COUNT) -benchtime=$(BENCH_TIME) ./internal/integrate | tee -a bench_raw.txt
	$(GO) test -run='^$$' -bench='^(BenchmarkFig8Scalability|BenchmarkCompress(Stream|InMemory|StreamEb))$$' \
		-benchmem -count=$(BENCH_COUNT) -benchtime=$(BENCH_TIME) . | tee -a bench_raw.txt
	$(GO) run ./cmd/benchjson -in bench_raw.txt -out $(BENCH_JSON)

# CI smoke: a single iteration of each key benchmark, so the harness and
# the JSON conversion cannot rot between perf-focused PRs.
bench-smoke:
	$(MAKE) bench BENCH_COUNT=1 BENCH_TIME=1x BENCH_JSON=bench_smoke.json
	rm -f bench_smoke.json bench_raw.txt

# Regression gate: rerun the trajectory benchmarks and diff against the
# committed baseline. Fails when a hot-path benchmark (Parse, Serialize,
# Encode, Decode) regresses ns/op by more than 20% or allocs/op at all.
# Benchmark noise varies across hosts, so CI runs this non-blocking; run
# it locally before committing a new BENCH_pr*.json.
bench-diff:
	$(GO) test -run='^$$' -bench='^(BenchmarkSerialize|BenchmarkParse)$$' \
		-benchmem -count=$(BENCH_COUNT) -benchtime=$(BENCH_TIME) ./internal/cpsz | tee bench_raw.txt
	$(GO) test -run='^$$' -bench='^(BenchmarkEncode|BenchmarkDecode)$$' \
		-benchmem -count=$(BENCH_COUNT) -benchtime=$(BENCH_TIME) ./internal/huffman | tee -a bench_raw.txt
	$(GO) test -run='^$$' -bench='^BenchmarkCompressStreamEb$$' \
		-benchmem -count=$(BENCH_COUNT) -benchtime=$(BENCH_TIME) . | tee -a bench_raw.txt
	$(GO) run ./cmd/benchjson -in bench_raw.txt -baseline $(BENCH_BASELINE)

# The full sweep over every package (slow; reproduces the paper tables).
bench-full:
	$(GO) test -bench=. -benchmem ./...

cover:
	$(GO) test -coverprofile=cover.out ./... && $(GO) tool cover -func=cover.out | tail -1

# Regenerate every table and figure of the paper (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/tspbench -exp all -csv results | tee experiments_output.txt

# Render the qualitative figures as PNGs.
figures:
	$(GO) run ./cmd/topoviz -mode skeleton -dataset ocean -lic -out fig_skeleton_ocean.png
	$(GO) run ./cmd/topoviz -mode error -dataset ocean -out fig_errmap_ocean.png
	$(GO) run ./cmd/topoviz -mode lossless -dataset ocean -out fig_lossless_ocean.png
	$(GO) run ./cmd/topoviz -mode lic -dataset cba -out fig_lic_cba.png

clean:
	rm -f cover.out experiments_output.txt fig_*.png bench_raw.txt bench_smoke.json bench_out.json profile_smoke*
