// Command tspsz is the command-line front end of the TspSZ compressor:
// generate synthetic datasets, compress and decompress fields, and inspect
// topological skeletons.
//
// Usage:
//
//	tspsz gen        -dataset ocean -scale 0.1 -out ocean.tspf
//	tspsz compress   -in ocean.tspf -out ocean.tsz -variant i -mode abs -eb 5e-2
//	tspsz decompress -in ocean.tsz -out ocean.dec.tspf
//	tspsz verify     -in ocean.tsz
//	tspsz inspect    -in ocean.tspf
//	tspsz compare    -orig ocean.tspf -dec ocean.dec.tspf -tau 1.4142
//
// Exit codes distinguish stream-failure classes so batch pipelines can
// branch without parsing stderr: 0 success, 1 generic failure, 2 usage,
// 3 truncated stream, 4 corrupt stream, 5 unsupported version, 6 invalid
// header, 7 contained decoder panic, 8 cancelled (deadline expired).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"tspsz"
	"tspsz/internal/datagen"
	"tspsz/internal/metrics"
	"tspsz/internal/resilient"
	"tspsz/internal/skeleton"
)

// ioPolicy is the retry policy every file touch in this command shares:
// transient faults (per the Temporary()/Timeout() convention) are absorbed
// with capped exponential backoff, everything else fails on first contact.
var ioPolicy = resilient.Policy{}

// Process exit codes for the stream-failure taxonomy.
const (
	exitUsage     = 2
	exitTruncated = 3
	exitCorrupt   = 4
	exitVersion   = 5
	exitHeader    = 6
	exitPanic     = 7
	exitCancelled = 8
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

// realMain returns rather than exits so every command's deferred cleanup
// (file closes, flushes) runs before the process dies.
func realMain(args []string) int {
	if len(args) < 1 {
		usage()
		return exitUsage
	}
	var err error
	switch args[0] {
	case "gen":
		err = cmdGen(args[1:])
	case "compress":
		err = cmdCompress(args[1:])
	case "decompress":
		err = cmdDecompress(args[1:])
	case "verify":
		err = cmdVerify(args[1:])
	case "inspect":
		err = cmdInspect(args[1:])
	case "compare":
		err = cmdCompare(args[1:])
	case "export":
		err = cmdExport(args[1:])
	case "stats":
		err = cmdStats(args[1:])
	case "compress-seq":
		err = cmdCompressSeq(args[1:])
	case "decompress-seq":
		err = cmdDecompressSeq(args[1:])
	default:
		usage()
		return exitUsage
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tspsz:", err)
		return exitCode(err)
	}
	return 0
}

// exitCode maps the error taxonomy to distinct process exit codes. A
// contained worker panic is checked first: it is also ErrCorrupt, but a
// panic means a decoder bug worth telling apart from plain bad bytes.
func exitCode(err error) int {
	var pc interface{ PanicValue() any }
	switch {
	case errors.As(err, &pc):
		return exitPanic
	case errors.Is(err, tspsz.ErrCancelled):
		return exitCancelled
	case errors.Is(err, tspsz.ErrTruncated):
		return exitTruncated
	case errors.Is(err, tspsz.ErrCorrupt):
		return exitCorrupt
	case errors.Is(err, tspsz.ErrVersion):
		return exitVersion
	case errors.Is(err, tspsz.ErrHeader):
		return exitHeader
	}
	return 1
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: tspsz <gen|compress|decompress|verify|inspect|compare> [flags]
  gen        generate a synthetic dataset (cba, ocean, hurricane, nek5000)
  compress   compress a .tspf field into a .tsz stream
  decompress reconstruct a .tspf field from a .tsz stream
  verify     checksum-scan a .tsz/.tsq stream without decoding it
  inspect    print a field's topological skeleton summary
  compare    compare skeletons of two fields (original vs decompressed)
  export     write a field's topological skeleton as legacy VTK polydata
  stats      print value range, divergence, and vorticity diagnostics
  compress-seq   compress a time series of .tspf frames with temporal prediction
  decompress-seq reconstruct every frame of a .tsq sequence stream
exit codes: 0 ok, 1 error, 2 usage, 3 truncated, 4 corrupt, 5 version, 6 header, 7 decoder panic, 8 cancelled`)
}

// cmdVerify checks every integrity layer of a compressed stream — header
// CRC32C, per-chunk checksums, archive trailer — without decoding chunk
// payloads, so damaged archives surface at I/O speed. With -report it
// lists every failure; either way it exits with the class of the first.
func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	in := fs.String("in", "", "input .tsz or .tsq path (required)")
	report := fs.Bool("report", false, "scan every section and chunk, reporting all failures instead of stopping at the first")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("verify: -in is required")
	}
	data, err := resilient.ReadFile(*in, ioPolicy)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if *report {
		fails := tspsz.VerifyAll(data)
		if len(fails) == 0 {
			fmt.Printf("%s: %d bytes, all checksums OK in %v\n", *in, len(data), time.Since(t0).Round(time.Microsecond))
			return nil
		}
		for _, fe := range fails {
			fmt.Printf("%s: %v\n", *in, fe)
		}
		return fmt.Errorf("verify %s: %d integrity failure(s); first: %w", *in, len(fails), fails[0])
	}
	if err := tspsz.Verify(data); err != nil {
		return fmt.Errorf("verify %s: %w", *in, err)
	}
	fmt.Printf("%s: %d bytes, all checksums OK in %v\n", *in, len(data), time.Since(t0).Round(time.Microsecond))
	return nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	dataset := fs.String("dataset", "ocean", "dataset name: cba|ocean|hurricane|nek5000")
	scale := fs.Float64("scale", 0.1, "fraction of the paper's full resolution (0,1]")
	out := fs.String("out", "", "output .tspf path (required)")
	rawPrefix := fs.String("raw", "", "also write bare float32 components as <prefix>_u.dat, _v.dat[, _w.dat] (SDRBench layout)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("gen: -out is required")
	}
	f, err := datagen.ByName(*dataset, *scale)
	if err != nil {
		return err
	}
	if err := resilient.AtomicWrite(*out, 0o644, ioPolicy, func(w io.Writer) error {
		_, err := f.WriteTo(w)
		return err
	}); err != nil {
		return err
	}
	if *rawPrefix != "" {
		names := []string{"_u.dat", "_v.dat", "_w.dat"}[:len(f.Components())]
		paths := make([]string, len(names))
		for i, suffix := range names {
			paths[i] = *rawPrefix + suffix
		}
		if err := writeRawAtomic(f, paths); err != nil {
			return err
		}
		fmt.Printf("wrote raw components with prefix %s\n", *rawPrefix)
	}
	nx, ny, nz := f.Grid.Dims()
	fmt.Printf("wrote %s: %dD %dx%dx%d (%d vertices, %.2f MB raw)\n",
		*out, f.Dim(), nx, ny, nz, f.NumVertices(), float64(f.SizeBytes())/1e6)
	return nil
}

// writeRawAtomic lands one raw float32 file per component with all-or-
// nothing visibility across the set: every component streams into a temp
// file beside its destination, and the renames happen only after the whole
// WriteRaw succeeded — a failure leaves no partial component behind.
func writeRawAtomic(f *tspsz.Field, paths []string) error {
	files := make([]*os.File, len(paths))
	cleanup := func() {
		for _, fh := range files {
			if fh != nil {
				fh.Close()
				os.Remove(fh.Name())
			}
		}
	}
	writers := make([]io.Writer, len(paths))
	for i, path := range paths {
		fh, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
		if err != nil {
			cleanup()
			return err
		}
		files[i] = fh
		writers[i] = resilient.NewWriter(fh, ioPolicy)
	}
	if err := f.WriteRaw(writers...); err != nil {
		cleanup()
		return err
	}
	for i, fh := range files {
		err := fh.Chmod(0o644)
		if cerr := fh.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(fh.Name(), paths[i])
		}
		if err != nil {
			cleanup()
			return err
		}
		files[i] = nil
	}
	return nil
}

// statsFlag implements -stats[=path.json]: bare -stats prints the
// observability snapshot as JSON to stdout, -stats=path.json writes it to a
// file. IsBoolFlag lets the flag package accept the value-less form.
type statsFlag struct {
	enabled bool
	path    string
}

func (s *statsFlag) String() string {
	switch {
	case !s.enabled:
		return ""
	case s.path == "":
		return "true"
	}
	return s.path
}

func (s *statsFlag) Set(v string) error {
	switch v {
	case "false":
		*s = statsFlag{}
	case "", "true":
		*s = statsFlag{enabled: true}
	default:
		*s = statsFlag{enabled: true, path: v}
	}
	return nil
}

func (s *statsFlag) IsBoolFlag() bool { return true }

// obsFlags registers the shared observability flags on a command's FlagSet.
func obsFlags(fs *flag.FlagSet) (stats *statsFlag, cpuprofile *string) {
	stats = &statsFlag{}
	fs.Var(stats, "stats", "emit per-stage observability JSON; -stats prints to stdout, -stats=path.json writes a file")
	cpuprofile = fs.String("cpuprofile", "", "write a CPU profile here; samples carry per-stage pprof labels")
	return stats, cpuprofile
}

// beginObs starts an observability session when -stats or -cpuprofile asks
// for one: it attaches the returned collector to the process-global
// dispatch hook and starts CPU profiling. The finish func stops profiling
// and emits the stats JSON; call it once after the command's work succeeds.
// When neither flag is set the collector is nil and finish is a no-op, so
// the command runs fully uninstrumented.
func beginObs(stats *statsFlag, cpuprofile string) (*tspsz.Collector, func() error, error) {
	if !stats.enabled && cpuprofile == "" {
		return nil, func() error { return nil }, nil
	}
	col := tspsz.NewCollector()
	unhook := tspsz.ObserveDispatches(col)
	var prof *os.File
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			unhook()
			return nil, nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			unhook()
			return nil, nil, err
		}
		prof = f
	}
	finish := func() error {
		unhook()
		if prof != nil {
			pprof.StopCPUProfile()
			if err := prof.Close(); err != nil {
				return err
			}
		}
		if !stats.enabled {
			return nil
		}
		snap := col.Snapshot()
		if stats.path == "" {
			return snap.WriteJSON(os.Stdout)
		}
		return resilient.AtomicWrite(stats.path, 0o644, ioPolicy, snap.WriteJSON)
	}
	return col, finish, nil
}

// timeoutFlag registers the shared -timeout flag: a wall-clock budget for
// the command's compute stage. Zero means no deadline.
func timeoutFlag(fs *flag.FlagSet) *time.Duration {
	return fs.Duration("timeout", 0, "abort after this duration (0 = none); an expired deadline exits with code 8")
}

// timeoutCtx turns the -timeout value into a context for the Ctx entry
// points. A zero budget yields a nil context, which the library treats as
// "never cancels" at zero cost.
func timeoutCtx(d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return nil, func() {}
	}
	return context.WithTimeout(context.Background(), d)
}

func readField(path string) (*tspsz.Field, error) {
	r, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return tspsz.ReadField(resilient.NewReader(r, ioPolicy))
}

func cmdCompress(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	in := fs.String("in", "", "input .tspf path (required)")
	out := fs.String("out", "", "output .tsz path (required)")
	variant := fs.String("variant", "i", "preservation algorithm: 1 (TspSZ-I) or i (TspSZ-i)")
	mode := fs.String("mode", "abs", "error control: abs or rel")
	eb := fs.Float64("eb", 1e-2, "error bound (absolute value or relative factor)")
	tau := fs.Float64("tau", math.Sqrt2, "Fréchet tolerance for TspSZ-i")
	epsP := fs.Float64("epsp", 1e-3, "sink/source absorption threshold ε_p")
	steps := fs.Int("t", 1000, "maximal RK4 steps")
	h := fs.Float64("h", 0.05, "RK4 step size")
	workers := fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	stream := fs.Bool("stream", false, "out-of-core mode: pull the input layer-by-layer so peak memory tracks the slab window, not the field (variant 1 only)")
	timeout := timeoutFlag(fs)
	stats, cpuprofile := obsFlags(fs)
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("compress: -in and -out are required")
	}
	var f *tspsz.Field
	var err error
	if !*stream {
		f, err = readField(*in)
		if err != nil {
			return err
		}
	}
	col, finishObs, err := beginObs(stats, *cpuprofile)
	if err != nil {
		return err
	}
	opts := tspsz.Options{
		ErrBound:  *eb,
		Tau:       *tau,
		Params:    tspsz.IntegrationParams{EpsP: *epsP, MaxSteps: *steps, H: *h},
		Workers:   *workers,
		Collector: col,
	}
	switch *variant {
	case "1":
		opts.Variant = tspsz.TspSZ1
	case "i":
		opts.Variant = tspsz.TspSZi
	default:
		return fmt.Errorf("compress: unknown variant %q", *variant)
	}
	switch *mode {
	case "abs":
		opts.Mode = tspsz.ModeAbsolute
	case "rel":
		opts.Mode = tspsz.ModeRelative
	default:
		return fmt.Errorf("compress: unknown mode %q", *mode)
	}
	ctx, cancel := timeoutCtx(*timeout)
	defer cancel()
	if *stream {
		if err := compressStreaming(ctx, *in, *out, opts); err != nil {
			return err
		}
		return finishObs()
	}
	t0 := time.Now()
	res, err := tspsz.CompressCtx(ctx, f, opts)
	if err != nil {
		return err
	}
	elapsed := time.Since(t0)
	if err := resilient.WriteFileAtomic(*out, res.Bytes, 0o644, ioPolicy); err != nil {
		return err
	}
	fmt.Printf("%s %s: %d -> %d bytes (CR %.2f) in %v\n",
		opts.Variant, opts.Mode, f.SizeBytes(), len(res.Bytes),
		metrics.CR(f, len(res.Bytes)), elapsed.Round(time.Millisecond))
	fmt.Printf("skeleton: %d critical points, %d saddles, %d separatrices; %d lossless vertices",
		res.Stats.NumCPs, res.Stats.NumSaddles, res.Stats.NumSeps, res.Stats.LosslessCount)
	if opts.Variant == tspsz.TspSZi {
		fmt.Printf("; %d initially wrong, fixed in %d iterations",
			res.Stats.InitiallyIncorrect, res.Stats.Iterations)
	}
	fmt.Println()
	return finishObs()
}

// compressStreaming is compress -stream: the input field never becomes
// resident. Layers are pulled straight off the .tspf file in one sweep of
// the streaming encoder, and the archive lands atomically at out.
// Only TspSZ-1 streams (TspSZ-i's correction loop needs the whole field);
// the library rejects other variants with a header error.
func compressStreaming(ctx context.Context, in, out string, opts tspsz.Options) error {
	src, err := os.Open(in)
	if err != nil {
		return err
	}
	defer src.Close()
	fl, err := tspsz.NewFileLayers(src)
	if err != nil {
		return fmt.Errorf("compress -stream %s: %w", in, err)
	}
	nx, ny, nz := fl.Dims()
	t0 := time.Now()
	var written int64
	if err := resilient.AtomicWrite(out, 0o644, ioPolicy, func(w io.Writer) error {
		written, err = tspsz.CompressStream(ctx, w, nx, ny, nz, fl, nil, opts)
		return err
	}); err != nil {
		return err
	}
	raw := nx * ny * nz * 3 * 4
	fmt.Printf("%s %s streamed: %dx%dx%d, %d -> %d bytes (CR %.2f) in %v\n",
		opts.Variant, opts.Mode, nx, ny, nz, raw, written,
		float64(raw)/float64(written), time.Since(t0).Round(time.Millisecond))
	return nil
}

func cmdDecompress(args []string) error {
	fs := flag.NewFlagSet("decompress", flag.ExitOnError)
	in := fs.String("in", "", "input .tsz path (required)")
	out := fs.String("out", "", "output .tspf path (required)")
	workers := fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	salvage := fs.Bool("salvage", false, "best-effort decode of a damaged archive: recover every intact chunk, zero-fill the rest")
	timeout := timeoutFlag(fs)
	stats, cpuprofile := obsFlags(fs)
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("decompress: -in and -out are required")
	}
	data, err := resilient.ReadFile(*in, ioPolicy)
	if err != nil {
		return err
	}
	col, finishObs, err := beginObs(stats, *cpuprofile)
	if err != nil {
		return err
	}
	ctx, cancel := timeoutCtx(*timeout)
	defer cancel()
	t0 := time.Now()
	var f *tspsz.Field
	if *salvage {
		var rep *tspsz.SalvageReport
		f, rep, err = tspsz.SalvageCtx(ctx, data, *workers)
		if err != nil {
			return err
		}
		printSalvageReport(rep)
	} else {
		f, err = tspsz.DecompressCtxObserved(ctx, data, *workers, col)
		if err != nil {
			return err
		}
	}
	elapsed := time.Since(t0)
	if err := resilient.AtomicWrite(*out, 0o644, ioPolicy, func(w io.Writer) error {
		_, werr := f.WriteTo(w)
		return werr
	}); err != nil {
		return err
	}
	fmt.Printf("decompressed %d vertices in %v -> %s\n", f.NumVertices(), elapsed.Round(time.Millisecond), *out)
	return finishObs()
}

// printSalvageReport narrates a salvage decode: per-section chunk damage,
// seal and patch fate, and the vertex-level recovery total.
func printSalvageReport(rep *tspsz.SalvageReport) {
	if rep == nil {
		return
	}
	if rep.Clean() {
		fmt.Println("salvage: archive is intact, decode is bit-exact")
		return
	}
	if rep.ContainerSealBroken {
		fmt.Println("salvage: container trailer broken (tolerated)")
	}
	if s := rep.Stream; s != nil {
		if s.SealBroken {
			fmt.Println("salvage: stream trailer broken (tolerated)")
		}
		for _, sec := range s.Sections {
			switch {
			case sec.Lost:
				fmt.Printf("salvage: section %s lost: %s\n", sec.Name, sec.LostReason)
			case len(sec.DamagedChunks) > 0:
				fmt.Printf("salvage: section %s: %d of %d chunks damaged %v, %d bytes recovered\n",
					sec.Name, len(sec.DamagedChunks), sec.Chunks, sec.DamagedChunks, sec.BytesRecovered)
			default:
				fmt.Printf("salvage: section %s: all %d chunks intact\n", sec.Name, sec.Chunks)
			}
		}
	}
	switch {
	case rep.PatchLost != "":
		fmt.Printf("salvage: correction patch lost (%s); falling back to uncorrected cpSZ reconstruction\n", rep.PatchLost)
	case rep.PatchApplied:
		fmt.Printf("salvage: correction patch intact, %d vertices restored losslessly\n", rep.PatchVertices)
	}
	if s := rep.Stream; s != nil {
		fmt.Printf("salvage: recovered %d of %d vertices (%d damaged, zero-filled)\n",
			s.TotalVertices-s.DamagedVertices, s.TotalVertices, s.DamagedVertices)
	}
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	in := fs.String("in", "", "input .tspf path (required)")
	epsP := fs.Float64("epsp", 1e-3, "absorption threshold")
	steps := fs.Int("t", 1000, "maximal RK4 steps")
	h := fs.Float64("h", 0.05, "RK4 step size")
	workers := fs.Int("workers", 0, "worker goroutines")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("inspect: -in is required")
	}
	par, err := traceParams("inspect", *epsP, *steps, *h)
	if err != nil {
		return err
	}
	f, err := readField(*in)
	if err != nil {
		return err
	}
	sk := tspsz.ExtractSkeleton(f, par, *workers)
	nx, ny, nz := f.Grid.Dims()
	fmt.Printf("field: %dD %dx%dx%d, %d vertices\n", f.Dim(), nx, ny, nz, f.NumVertices())
	fmt.Printf("critical points: %d (%d saddles)\n", len(sk.CPs), sk.NumSaddles())
	fmt.Printf("separatrices: %d\n", len(sk.Seps))
	return nil
}

// traceParams returns the RK4 parameters of a tracing command's flags,
// rejecting those that trace nothing by the rule the compressor applies.
func traceParams(cmd string, epsP float64, steps int, h float64) (tspsz.IntegrationParams, error) {
	par := tspsz.IntegrationParams{EpsP: epsP, MaxSteps: steps, H: h}
	if err := par.Validate(); err != nil {
		return par, fmt.Errorf("%s: %w", cmd, err)
	}
	return par, nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	in := fs.String("in", "", "input .tspf path (required)")
	dec := fs.String("dec", "", "optional decompressed .tspf to diff against")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("stats: -in is required")
	}
	f, err := readField(*in)
	if err != nil {
		return err
	}
	lo, hi := f.Range()
	nx, ny, nz := f.Grid.Dims()
	fmt.Printf("field: %dD %dx%dx%d, %d vertices, range [%g, %g]\n",
		f.Dim(), nx, ny, nz, f.NumVertices(), lo, hi)
	fmt.Printf("divergence RMS: %.4g   vorticity RMS: %.4g\n",
		metrics.RMS(metrics.Divergence(f)), metrics.RMS(metrics.Vorticity(f)))
	if *dec != "" {
		d, err := readField(*dec)
		if err != nil {
			return err
		}
		fmt.Printf("vs %s: PSNR %.2f dB, MSE %.4g\n", *dec, metrics.PSNR(f, d), metrics.MSE(f, d))
		fmt.Printf("decompressed divergence RMS: %.4g   vorticity RMS: %.4g\n",
			metrics.RMS(metrics.Divergence(d)), metrics.RMS(metrics.Vorticity(d)))
	}
	return nil
}

func cmdCompressSeq(args []string) error {
	fs := flag.NewFlagSet("compress-seq", flag.ExitOnError)
	out := fs.String("out", "", "output .tsq path (required)")
	variant := fs.String("variant", "i", "preservation algorithm: 1 or i")
	mode := fs.String("mode", "abs", "error control: abs or rel")
	eb := fs.Float64("eb", 1e-2, "error bound")
	tau := fs.Float64("tau", math.Sqrt2, "Fréchet tolerance for TspSZ-i")
	epsP := fs.Float64("epsp", 1e-3, "absorption threshold")
	steps := fs.Int("t", 1000, "maximal RK4 steps")
	h := fs.Float64("h", 0.05, "RK4 step size")
	workers := fs.Int("workers", 0, "worker goroutines")
	timeout := timeoutFlag(fs)
	stats, cpuprofile := obsFlags(fs)
	fs.Parse(args)
	if *out == "" || fs.NArg() == 0 {
		return fmt.Errorf("compress-seq: -out and at least one input frame are required")
	}
	frames := make([]*tspsz.Field, 0, fs.NArg())
	for _, path := range fs.Args() {
		f, err := readField(path)
		if err != nil {
			return fmt.Errorf("frame %s: %w", path, err)
		}
		frames = append(frames, f)
	}
	col, finishObs, err := beginObs(stats, *cpuprofile)
	if err != nil {
		return err
	}
	opts := tspsz.Options{
		ErrBound: *eb, Tau: *tau, Workers: *workers, Collector: col,
		Params: tspsz.IntegrationParams{EpsP: *epsP, MaxSteps: *steps, H: *h},
	}
	if *variant == "1" {
		opts.Variant = tspsz.TspSZ1
	} else {
		opts.Variant = tspsz.TspSZi
	}
	if *mode == "rel" {
		opts.Mode = tspsz.ModeRelative
	} else {
		opts.Mode = tspsz.ModeAbsolute
	}
	ctx, cancel := timeoutCtx(*timeout)
	defer cancel()
	t0 := time.Now()
	res, err := tspsz.CompressSequenceCtx(ctx, frames, opts)
	if err != nil {
		return err
	}
	if err := resilient.WriteFileAtomic(*out, res.Bytes, 0o644, ioPolicy); err != nil {
		return err
	}
	raw := 0
	for _, f := range frames {
		raw += f.SizeBytes()
	}
	fmt.Printf("%d frames: %d -> %d bytes (CR %.2f) in %v\n",
		len(frames), raw, len(res.Bytes), float64(raw)/float64(len(res.Bytes)),
		time.Since(t0).Round(time.Millisecond))
	return finishObs()
}

func cmdDecompressSeq(args []string) error {
	fs := flag.NewFlagSet("decompress-seq", flag.ExitOnError)
	in := fs.String("in", "", "input .tsq path (required)")
	prefix := fs.String("outprefix", "", "output prefix; frames land at <prefix>NNN.tspf (required)")
	workers := fs.Int("workers", 0, "worker goroutines")
	timeout := timeoutFlag(fs)
	stats, cpuprofile := obsFlags(fs)
	fs.Parse(args)
	if *in == "" || *prefix == "" {
		return fmt.Errorf("decompress-seq: -in and -outprefix are required")
	}
	data, err := resilient.ReadFile(*in, ioPolicy)
	if err != nil {
		return err
	}
	col, finishObs, err := beginObs(stats, *cpuprofile)
	if err != nil {
		return err
	}
	ctx, cancel := timeoutCtx(*timeout)
	defer cancel()
	frames, err := tspsz.DecompressSequenceCtxObserved(ctx, data, *workers, col)
	if err != nil {
		return err
	}
	for i, f := range frames {
		path := fmt.Sprintf("%s%03d.tspf", *prefix, i)
		if err := resilient.AtomicWrite(path, 0o644, ioPolicy, func(w io.Writer) error {
			_, werr := f.WriteTo(w)
			return werr
		}); err != nil {
			return err
		}
	}
	fmt.Printf("decompressed %d frames to %sNNN.tspf\n", len(frames), *prefix)
	return finishObs()
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	in := fs.String("in", "", "input .tspf path (required)")
	out := fs.String("out", "", "output .vtk path (required)")
	epsP := fs.Float64("epsp", 1e-3, "absorption threshold")
	steps := fs.Int("t", 1000, "maximal RK4 steps")
	h := fs.Float64("h", 0.05, "RK4 step size")
	workers := fs.Int("workers", 0, "worker goroutines")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("export: -in and -out are required")
	}
	par, err := traceParams("export", *epsP, *steps, *h)
	if err != nil {
		return err
	}
	f, err := readField(*in)
	if err != nil {
		return err
	}
	sk := tspsz.ExtractSkeleton(f, par, *workers)
	if err := resilient.AtomicWrite(*out, 0o644, ioPolicy, func(w io.Writer) error {
		return skeleton.WriteVTK(w, sk)
	}); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d critical points, %d separatrices\n", *out, len(sk.CPs), len(sk.Seps))
	return nil
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	origPath := fs.String("orig", "", "original .tspf (required)")
	decPath := fs.String("dec", "", "decompressed .tspf (required)")
	tau := fs.Float64("tau", math.Sqrt2, "Fréchet tolerance")
	epsP := fs.Float64("epsp", 1e-3, "absorption threshold")
	steps := fs.Int("t", 1000, "maximal RK4 steps")
	h := fs.Float64("h", 0.05, "RK4 step size")
	workers := fs.Int("workers", 0, "worker goroutines")
	fs.Parse(args)
	if *origPath == "" || *decPath == "" {
		return fmt.Errorf("compare: -orig and -dec are required")
	}
	par, err := traceParams("compare", *epsP, *steps, *h)
	if err != nil {
		return err
	}
	orig, err := readField(*origPath)
	if err != nil {
		return err
	}
	dec, err := readField(*decPath)
	if err != nil {
		return err
	}
	oSk := tspsz.ExtractSkeleton(orig, par, *workers)
	dSk := tspsz.ExtractSkeletonWith(dec, oSk, par, *workers)
	st := tspsz.CompareSkeletons(oSk, dSk, *tau, *workers)
	fmt.Printf("PSNR: %.2f dB\n", metrics.PSNR(orig, dec))
	fmt.Printf("separatrices: %d compared, %d incorrect\n", st.Total, st.Incorrect)
	fmt.Printf("Fréchet: max %.4f  mean %.4f  std %.4f\n", st.MaxF, st.MeanF, st.StdF)
	return nil
}
