package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

// pb is a minimal protobuf encoder for building profile fixtures.
type pb []byte

func (p pb) varint(num int, v uint64) pb {
	p = binary.AppendUvarint(p, uint64(num)<<3)
	return binary.AppendUvarint(p, v)
}

func (p pb) bytes(num int, b []byte) pb {
	p = binary.AppendUvarint(p, uint64(num)<<3|2)
	p = binary.AppendUvarint(p, uint64(len(b)))
	return append(p, b...)
}

func (p pb) packed(num int, vs ...uint64) pb {
	var body []byte
	for _, v := range vs {
		body = binary.AppendUvarint(body, v)
	}
	return p.bytes(num, body)
}

// fixtureProfile encodes a CPU profile shaped like runtime/pprof's: two
// sample types (samples/count, cpu/nanoseconds), one location per frame
// except an inlined pair, and the stacks below.
func fixtureProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	intern := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var prof pb
	prof = prof.bytes(1, pb{}.varint(1, 1).varint(2, 2))
	prof = prof.bytes(1, pb{}.varint(1, 3).varint(2, 4))

	funcIDs := map[string]uint64{}
	var funcs, locs pb
	fn := func(name string) uint64 {
		if id, ok := funcIDs[name]; ok {
			return id
		}
		id := uint64(len(funcIDs) + 1)
		funcIDs[name] = id
		funcs = funcs.bytes(5, pb{}.varint(1, id).varint(2, intern(name)))
		return id
	}
	nextLoc := uint64(0)
	// loc makes one location; several names mean inlined frames, the
	// innermost first.
	loc := func(names ...string) uint64 {
		nextLoc++
		m := pb{}.varint(1, nextLoc)
		for _, n := range names {
			m = m.bytes(4, pb{}.varint(1, fn(n)).varint(2, 7))
		}
		locs = append(locs, pb{}.bytes(4, m)...)
		return nextLoc
	}
	sample := func(nanos uint64, stack ...uint64) {
		prof = prof.bytes(2, pb{}.packed(1, stack...).packed(2, 1, nanos))
	}

	// Innermost repo frame wins, with a runtime frame (map access) below it.
	sample(30e6,
		loc("runtime.mapaccess2_faststr"),
		loc("alm/internal/fairshare.(*System).allocate"),
		loc("alm/internal/engine.(*Job).Start.func1"),
		loc("main.(*state).runJob"))
	// Stdlib frames (sort, cmpbody) go to the repo caller; the repo frame
	// here is inlined into its caller within one location.
	sample(20e6,
		loc("runtime.cmpbody"),
		loc("sort.Slice"),
		loc("alm/internal/merge.sortRun", "alm/internal/merge.(*Merger).Next"),
		loc("alm/internal/engine.(*reduceTask).step"))
	// Background GC workers go to gc.
	sample(10e6,
		loc("runtime.scanobject"),
		loc("runtime.gcDrain"),
		loc("runtime.gcBgMarkWorker"),
		loc("runtime.goexit"))
	// No repo frame: runtime.
	sample(5e6, loc("runtime.futex"), loc("runtime.schedule"))
	// The benchmark's own code is bench; the facade is alm.
	sample(25e6, loc("bytes.(*Buffer).Write"), loc("main.verify"))
	sample(10e6, loc("alm.Run"), loc("main.(*state).runJob"))

	for _, s := range strs {
		prof = prof.bytes(6, []byte(s))
	}
	prof = append(append(prof, funcs...), locs...)

	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(prof); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFoldProfileFixture(t *testing.T) {
	samples, err := parseProfile(fixtureProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 6 {
		t.Fatalf("decoded %d samples, want 6", len(samples))
	}
	if got := samples[1].frames; len(got) != 5 || got[2] != "alm/internal/merge.sortRun" || got[3] != "alm/internal/merge.(*Merger).Next" {
		t.Fatalf("inlined frames decoded as %q, want innermost first", got)
	}
	folded := foldLayers(samples)
	want := map[string]int64{
		"fairshare": 30e6,
		"merge":     20e6,
		"gc":        10e6,
		"runtime":   5e6,
		"bench":     25e6,
		"alm":       10e6,
	}
	if len(folded) != len(want) {
		t.Fatalf("folded into %v, want %v", folded, want)
	}
	for l, n := range want {
		if folded[l] != n {
			t.Errorf("%s = %d ns, want %d", l, folded[l], n)
		}
	}
	sum := 0.0
	sh := shares(folded)
	for _, s := range sh {
		sum += s.pct
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Fatalf("shares sum to %v%%, want 100", sum)
	}
	if sh[0].layer != "fairshare" || sh[0].pct != 30 {
		t.Fatalf("largest share %+v, want fairshare at 30%%", sh[0])
	}
}

func TestRepoLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"alm/internal/sim.(*Engine).Run":         "sim",
		"alm/internal/lint/cfg.Build":            "lint",
		"alm/internal/sweep.Do.func1":            "sweep",
		"alm.Run":                                "alm",
		"main.main":                              "bench",
		"alm/internal/engine.glob..func1":        "engine",
		"alm/internal/sim.(*wheel[...]).advance": "sim",
	} {
		if got, ok := repoLayer(fn); !ok || got != want {
			t.Errorf("repoLayer(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	for _, fn := range []string{"runtime.mallocgc", "sort.Slice", "almost/x.F", "internal/runtime/maps.(*Map).getWithKey"} {
		if l, ok := repoLayer(fn); ok {
			t.Errorf("repoLayer(%q) = %q, want outside the module", fn, l)
		}
	}
}
