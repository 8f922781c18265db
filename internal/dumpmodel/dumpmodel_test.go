package dumpmodel

import (
	"testing"
	"time"
)

func TestValidate(t *testing.T) {
	if err := DefaultBebop().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{Ranks: 0, FSBandwidth: 1, PerRankBandwidth: 1}).Validate(); err == nil {
		t.Fatal("zero ranks accepted")
	}
	if err := (Config{Ranks: 4, FSBandwidth: 0, PerRankBandwidth: 1}).Validate(); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
}

func TestIOTimeLimits(t *testing.T) {
	// Few ranks: per-rank bandwidth limits; many ranks: shared FS limits.
	few := Config{Ranks: 2, FSBandwidth: 1e9, PerRankBandwidth: 100e6}
	many := Config{Ranks: 128, FSBandwidth: 1e9, PerRankBandwidth: 100e6}
	bytes := int64(2e8)
	tFew := few.IOTime(bytes)
	tMany := many.IOTime(bytes)
	if tFew <= tMany {
		t.Fatalf("few-rank write (%v) should be slower than many-rank (%v)", tFew, tMany)
	}
	// Many ranks saturate the FS: 2e8 bytes at 1e9 B/s = 0.2 s.
	if got := tMany.Seconds(); got < 0.19 || got > 0.21 {
		t.Fatalf("FS-bound time = %v", got)
	}
	if few.IOTime(0) != 0 {
		t.Fatal("zero bytes should cost zero time")
	}
}

func TestComputeTimeScales(t *testing.T) {
	c := Config{Ranks: 64, FSBandwidth: 1e9, PerRankBandwidth: 1e8}
	total := 64 * time.Second
	if got := c.ComputeTime(total); got != time.Second {
		t.Fatalf("ComputeTime = %v", got)
	}
}

func TestDumpReport(t *testing.T) {
	c := DefaultBebop()
	bytes := int64(c.FSBandwidth) // exactly one second of shared-FS writing
	r := c.Dump("snap1", 128*time.Second, 256*time.Second, bytes, 1000, 60)
	if r.OptimizationTime != time.Second {
		t.Fatalf("opt = %v", r.OptimizationTime)
	}
	if r.CompressTime != 2*time.Second {
		t.Fatalf("comp = %v", r.CompressTime)
	}
	if got := r.IOTime.Seconds(); got < 0.99 || got > 1.01 {
		t.Fatalf("io = %v", got)
	}
	if r.Total() != r.OptimizationTime+r.CompressTime+r.IOTime {
		t.Fatal("Total mismatch")
	}
	if r.BitRate != float64(bytes)*8/1000 {
		t.Fatalf("bitrate = %v", r.BitRate)
	}
	if r.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestSummarize(t *testing.T) {
	rs := []DumpReport{
		{CompressTime: time.Second, BytesWritten: 10},
		{CompressTime: 3 * time.Second, BytesWritten: 20},
		{CompressTime: 2 * time.Second, BytesWritten: 30},
	}
	s := Summarize(rs)
	if s.Total != 6*time.Second {
		t.Fatalf("total = %v", s.Total)
	}
	if s.Max != 3*time.Second {
		t.Fatalf("max = %v", s.Max)
	}
	if s.Bytes != 60 {
		t.Fatalf("bytes = %d", s.Bytes)
	}
}
