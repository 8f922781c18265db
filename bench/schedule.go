package main

import (
	"fmt"
	"strings"
)

// verb is one of the four things a user does to the system. Every workload
// is a mix of the same verbs, so every workload reports every end-to-end
// metric. tier (a demote+promote pair on archive-exact) is bookkeeping
// traffic: it counts in throughput but has no latency metric of its own.
type verb uint8

const (
	vWrite verb = iota
	vRead
	vSlice
	vModel
	vTier
	nVerbs
)

var verbNames = [nVerbs]string{"write", "read", "slice", "model", "tier"}

func (v verb) String() string { return verbNames[v] }

// workload is one named traffic mix. The names are fixed: later issues cite
// them.
type workload struct {
	name string
	why  string
	// fields is the corpus; variants is how many dataset names each client
	// owns per field. Each client owns a disjoint name set, so every
	// response has exactly one correct answer.
	fields   []fieldSpec
	variants int
	clients  int
	// mix is the op mix by count: write, read, slice, model.
	mix [4]int
	// ops is the length of the timed op list per client: whole cycles of the
	// mix, sized so the timed section takes about two thirds of runSeconds on
	// the 2-core sandbox at the commit that added the benchmark (see
	// README.md for the sample counts this gives each verb).
	ops int
	// zipf draws the variant Zipf(s=1) (a hot set per field); otherwise
	// uniform, which bypasses any hot-set cache.
	zipf bool
	// tierEvery inserts one demote+promote pair after every n-th write.
	tierEvery int
	library   bool // no server: the rqm library called directly
	exact     bool // datasets carry the lossless residual layer
	cluster   bool // three shards behind rqrouter, R=2
}

var workloads = []*workload{
	{
		name: "insitu-library",
		why: "the paper's in-situ use-cases on the bare library: compressor/core/stream/partition do the work, " +
			"compress sits beside decompress for three entropy kinds, store/service/router/residual are idle",
		fields:   []fieldSpec{fieldNyx, fieldMiranda, fieldHACC, fieldCESM, fieldMixed},
		variants: 4, clients: 1, mix: [4]int{1, 2, 5, 1}, ops: 200 * 9, library: true,
	},
	{
		name: "archive-mixed",
		why: "lossy serving tier on one rqserved: writes beside reads on one store, Zipf hot set so a decoded-chunk " +
			"cache would show, model answered from cached profiles so a faster sampling pass must not move it",
		fields:   []fieldSpec{fieldNyx, fieldMiranda, fieldHACC, fieldCESM},
		variants: 4, clients: 2, mix: [4]int{1, 5, 5, 2}, ops: 100 * 13, zipf: true,
	},
	{
		name: "archive-exact",
		why: "lossless tier: residual XOR/transpose/plane coding and the SHA-256 proof dominate and are idle " +
			"elsewhere; uniform popularity bypasses any hot-set cache",
		fields:   []fieldSpec{fieldNyx, fieldMiranda, fieldCESM},
		variants: 3, clients: 2, mix: [4]int{3, 15, 50, 2}, ops: 10 * 70, tierEvery: 20, exact: true,
	},
	{
		name: "cluster-mixed",
		why: "the archive-mixed schedule issued at rqrouter over 3 shards, R=2: the difference to archive-mixed " +
			"on identical ops is the cluster tier's cost (fan-out, body buffering, proxy relay)",
		fields:   []fieldSpec{fieldNyx, fieldMiranda, fieldHACC, fieldCESM},
		variants: 4, clients: 2, mix: [4]int{1, 5, 5, 2}, ops: 80 * 13, zipf: true, cluster: true,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// op is one scheduled operation. Everything the system under test receives
// derives from these fields and the corpus.
type op struct {
	Client  int
	Seq     int
	Verb    verb
	Field   int     // corpus index
	Variant int     // which of the client's names for that field
	Content content // write, model (library) and tier: the data written
	Off     int64   // slice: first element
	Alt     int     // alternates estimate/solve, psnr 50/70; each field sees both
	// Stratum groups ops whose latency is comparable (same field size, same
	// codec); latency statistics are taken per stratum. See stratifiedP50.
	Stratum int
}

// schedule generates one client's op sequence. It is a pure function of
// (workload, seed, client, position): no generator state beyond counters,
// so the same seed always yields the same ops. Every cycle holds the same
// verbs and the fields rotate in the same order for every seed, which keeps
// the work per run comparable across seeds; the seed decides the order
// within a cycle, content, names and offsets.
type schedule struct {
	w        *workload
	corp     *corpus
	sliceLen int
	seed     uint64
	client   int
	pattern  []verb // the current cycle's verb order
	n        int
	count    [nVerbs]int
	pending  *op // a tier op queued behind the write that triggered it
}

func newSchedule(w *workload, corp *corpus, sliceLen int, seed uint64, client int) *schedule {
	return &schedule{w: w, corp: corp, sliceLen: sliceLen, seed: seed, client: client, pattern: interleave(w.mix)}
}

// interleave lays the mix out as one cycle with each verb spaced as evenly as
// its count allows. Ties go to the later verb, so model precedes the write
// it is paired with in insitu-library.
func interleave(mix [4]int) []verb {
	total := 0
	for _, c := range mix {
		total += c
	}
	var emitted [4]int
	out := make([]verb, 0, total)
	for k := 0; k < total; k++ {
		best, bestDeficit := -1, 0.0
		for v := 3; v >= 0; v-- {
			d := float64(mix[v]*(k+1))/float64(total) - float64(emitted[v])
			if best < 0 || d > bestDeficit+1e-12 {
				best, bestDeficit = v, d
			}
		}
		emitted[best]++
		out = append(out, verb(best))
	}
	return out
}

func (s *schedule) next() op {
	if s.pending != nil {
		o := *s.pending
		s.pending = nil
		o.Seq = s.n
		s.n++
		return o
	}
	pos := (s.n - s.count[vTier]) % len(s.pattern)
	if pos == 0 && !s.w.library {
		// Two clients walking the same fixed pattern fall into step, and how
		// their writes overlap then differs from run to run. A fresh shuffle
		// per cycle keeps each cycle's content and breaks the lockstep. The
		// library has one caller, and its writes need their model op first.
		cycle := uint64((s.n - s.count[vTier]) / len(s.pattern))
		for i := len(s.pattern) - 1; i > 0; i-- {
			j := int(mix64(key(s.seed, uint64(s.client), cycle, uint64(i))) % uint64(i+1))
			s.pattern[i], s.pattern[j] = s.pattern[j], s.pattern[i]
		}
	}
	v := s.pattern[pos]
	j := s.count[v]
	s.count[v]++
	o := op{Client: s.client, Seq: s.n, Verb: v, Alt: j}
	s.n++
	h := key(s.seed, uint64(s.client), uint64(v), uint64(j))

	if s.w.library {
		// model j and write j address the same slot with the same content:
		// profile, solve, then write at the solved bound. Every 8th is the
		// mixed field; variants rotate so each field meets each codec.
		// Reads and slices walk the slots in the same rotation.
		plain := len(s.w.fields) - 1
		if j%8 == 7 {
			o.Field = plain
			o.Variant = (j / 8) % s.w.variants
		} else {
			k := j - j/8
			o.Field = k % plain
			o.Variant = (k / plain) % s.w.variants
		}
		o.Content = s.corp.newContent(o.Field, key(s.seed, uint64(s.client), uint64(vWrite), uint64(j)))
		o.Stratum = o.Field*s.w.variants + o.Variant
	} else {
		o.Field = j % len(s.w.fields)
		o.Alt = j / len(s.w.fields)
		u := unit(mix64(h ^ 1))
		if s.w.zipf {
			o.Variant = zipfPick(u, s.w.variants)
		} else {
			o.Variant = int(u * float64(s.w.variants))
		}
		o.Content = s.corp.newContent(o.Field, h)
		o.Stratum = o.Field
		if v == vModel {
			// Estimate and solve, psnr 50 and 70, cost differently.
			o.Stratum = o.Field*2 + o.Alt%2
		}
	}
	if v == vSlice {
		span := int64(s.corp.fields[o.Field].Len() - s.sliceLen + 1)
		o.Off = int64(unit(mix64(h^2)) * float64(span))
	}
	if v == vWrite && s.w.tierEvery > 0 && (j+1)%s.w.tierEvery == 0 {
		t := o
		t.Verb = vTier
		s.count[vTier]++
		s.pending = &t
	}
	return o
}

// zipfPick draws a rank in [0, n) with weight 1/(rank+1) from u in [0, 1).
func zipfPick(u float64, n int) int {
	total := 0.0
	for r := 0; r < n; r++ {
		total += 1 / float64(r+1)
	}
	acc := 0.0
	for r := 0; r < n; r++ {
		acc += 1 / float64(r+1) / total
		if u < acc {
			return r
		}
	}
	return n - 1
}

// slotName is the dataset name a client uses for (field, variant).
func slotName(w *workload, client, field, variant int) string {
	return fmt.Sprintf("c%d-%s-%d", client, w.fields[field].tag, variant)
}

// describe renders the first n ops of every client's schedule, one per
// line: the op list the determinism test compares byte for byte.
func describe(w *workload, corp *corpus, sliceLen int, seed uint64, n int) string {
	var b strings.Builder
	for c := 0; c < w.clients; c++ {
		s := newSchedule(w, corp, sliceLen, seed, c)
		for i := 0; i < n; i++ {
			o := s.next()
			fmt.Fprintf(&b, "%d %d %s %s off=%d a=%.17g b=%.17g alt=%d\n", o.Client, o.Seq, o.Verb,
				slotName(w, o.Client, o.Field, o.Variant), o.Off, o.Content.A, o.Content.Off, o.Alt)
		}
	}
	return b.String()
}
