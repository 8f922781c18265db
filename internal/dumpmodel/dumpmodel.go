// Package dumpmodel is an analytic performance model of parallel data dumping
// on an HPC system — the stand-in for the paper's 8-node/128-core Bebop
// experiments with parallel HDF5 over MPI-IO. Compression and optimization
// are embarrassingly parallel across ranks (each rank holds a slice of the
// snapshot); writes contend for shared file-system bandwidth. The model is
// calibrated with throughputs measured from the real Go compressor, so the
// relative shape of Fig. 14 (optimization ≫ for in-situ trial-and-error,
// I/O ∝ compressed bytes, stability of the model-driven dumps) is preserved
// even though absolute seconds differ from Bebop's.
package dumpmodel

import (
	"errors"
	"fmt"
	"time"
)

// Config describes the simulated machine.
type Config struct {
	// Ranks is the number of MPI ranks (cores).
	Ranks int
	// FSBandwidth is the aggregate parallel file-system bandwidth in
	// bytes/second.
	FSBandwidth float64
	// PerRankBandwidth caps a single rank's write speed (bytes/second).
	PerRankBandwidth float64
}

// DefaultBebop approximates the paper's testbed regime: 128 ranks against a
// shared file system slow enough that uncompressed dumps are I/O-bound
// (the paper's baseline dump takes 29.4 s/snapshot — far above any compute
// phase), with a per-rank write cap. Absolute bandwidths are free
// parameters of the simulation; the ratios between strategies are what the
// Fig. 14 reproduction preserves.
func DefaultBebop() Config {
	return Config{Ranks: 128, FSBandwidth: 4e8, PerRankBandwidth: 8e6}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Ranks <= 0 {
		return errors.New("dumpmodel: ranks must be positive")
	}
	if c.FSBandwidth <= 0 || c.PerRankBandwidth <= 0 {
		return errors.New("dumpmodel: bandwidths must be positive")
	}
	return nil
}

// effectiveBandwidth is the aggregate write speed with both limits applied.
func (c Config) effectiveBandwidth() float64 {
	agg := float64(c.Ranks) * c.PerRankBandwidth
	if agg > c.FSBandwidth {
		return c.FSBandwidth
	}
	return agg
}

// IOTime is the wall-clock time to write `bytes` through the shared FS.
func (c Config) IOTime(bytes int64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	sec := float64(bytes) / c.effectiveBandwidth()
	return time.Duration(sec * float64(time.Second))
}

// ComputeTime converts total single-core CPU seconds of perfectly parallel
// work into wall time across the ranks.
func (c Config) ComputeTime(totalCPU time.Duration) time.Duration {
	return time.Duration(float64(totalCPU) / float64(c.Ranks))
}

// DumpReport breaks one snapshot dump into the paper's three components
// (Fig. 14): optimization, compression, and I/O.
type DumpReport struct {
	// Snapshot identifies the dump.
	Snapshot string
	// OptimizationTime is the wall time of configuration search (zero for
	// the traditional offline approach, large for in-situ trial-and-error).
	OptimizationTime time.Duration
	// CompressTime is the wall time of parallel compression.
	CompressTime time.Duration
	// IOTime is the wall time of the parallel write.
	IOTime time.Duration
	// BytesWritten is the compressed snapshot size.
	BytesWritten int64
	// BitRate is compressed bits per value.
	BitRate float64
	// PSNR is the (modeled or measured) snapshot quality in dB.
	PSNR float64
}

// Total is the end-to-end dump wall time.
func (r DumpReport) Total() time.Duration {
	return r.OptimizationTime + r.CompressTime + r.IOTime
}

// String renders a compact single-line summary.
func (r DumpReport) String() string {
	return fmt.Sprintf("%s: op=%.3fs comp=%.3fs io=%.3fs total=%.3fs bytes=%d rate=%.3f psnr=%.2f",
		r.Snapshot, r.OptimizationTime.Seconds(), r.CompressTime.Seconds(), r.IOTime.Seconds(),
		r.Total().Seconds(), r.BytesWritten, r.BitRate, r.PSNR)
}

// Dump assembles a report from measured single-core times and output size:
// optCPU and compressCPU are total CPU seconds (parallelized across ranks);
// bytes go through the shared file system.
func (c Config) Dump(snapshot string, optCPU, compressCPU time.Duration, bytes int64, values int, psnr float64) DumpReport {
	bitRate := 0.0
	if values > 0 {
		bitRate = float64(bytes) * 8 / float64(values)
	}
	return DumpReport{
		Snapshot:         snapshot,
		OptimizationTime: c.ComputeTime(optCPU),
		CompressTime:     c.ComputeTime(compressCPU),
		IOTime:           c.IOTime(bytes),
		BytesWritten:     bytes,
		BitRate:          bitRate,
		PSNR:             psnr,
	}
}

// Summary aggregates a dump sequence: total and maximum dump times (the
// paper highlights the maximum as the stability-critical number).
type Summary struct {
	// Total is the sum of all dump wall times.
	Total time.Duration
	// Max is the slowest single dump.
	Max time.Duration
	// Bytes is the total data written.
	Bytes int64
}

// Summarize folds reports into a Summary.
func Summarize(reports []DumpReport) Summary {
	var s Summary
	for _, r := range reports {
		t := r.Total()
		s.Total += t
		if t > s.Max {
			s.Max = t
		}
		s.Bytes += r.BytesWritten
	}
	return s
}
