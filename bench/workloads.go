package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/geometry"
	"repro/internal/topology"
	"repro/internal/workload"
)

// ringSize is how many pre-generated publications a run cycles through.
// The oracle brute-forces each ring point once, so its cost does not
// grow with the run length. A third of the publication model's points
// fall outside the event space and cost nothing, which puts the median
// publication of the selective workload on the edge of the populated
// region, where cost climbs steeply: with 2048 points the sampling error
// of that median alone was a tenth.
const ringSize = 4096

// churnEvery is how many publishes pass between one Subscribe+Cancel
// pair on the churn workload.
const churnEvery = 8

// spec is one workload's frozen parameters. Every value here is part of
// the benchmark's definition: changing one makes old and new numbers
// non-comparable.
type spec struct {
	name string
	// subs is the subscription population (in-process) or the number of
	// subscriptions the subscriber client holds (wire).
	subs int
	// selective switches the paper model's wildcard and half-open cases
	// off and narrows every interval (see selectiveConfig).
	selective bool
	// buffer is BrokerOptions.DefaultBuffer, the only broker option the
	// harness sets.
	buffer int
	// payload is the publication payload size in bytes.
	payload int
	churn   bool
	durable bool
	wire    bool
	// conns and generators are what the load shape needs; the harness
	// refuses to run where either exceeds the CPU count.
	conns, generators int
}

var specs = []spec{
	{name: "stock", subs: 10_000, buffer: 64, payload: 64, generators: 1},
	{name: "selective", subs: 100_000, selective: true, buffer: 16, payload: 64, generators: 1},
	{name: "churn", subs: 10_000, buffer: 64, payload: 64, churn: true, generators: 1},
	{name: "wire", subs: 64, buffer: 64, payload: 128, wire: true, conns: 2, generators: 1},
	{name: "durable", subs: 100, buffer: 1024, payload: 1024, durable: true, generators: 1},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// selectiveConfig is the paper's Section 5 generator with the wildcard
// (q0) and half-open (q1, q2) cases switched off, unit-length name
// intervals and Pareto(0.25, 1.5) quote/volume lengths. Tuned once so
// that 100 000 subscriptions give a mean fan-out below 5 on the 9-mode
// publication model, then frozen.
//
// The tail exponent is what makes the walk expensive — the few long
// rectangles stretch the bounding boxes they are packed into — and what
// makes it repeat: at 2 the packed S-tree came out in one of two shapes
// depending on the seed, a tenth apart in nodes visited per query and in
// publications per second, a fifth in median latency; at 1.5 there are
// enough long rectangles for their number to be steady, and eight seeds
// stay within 7 % in nodes visited. A thinner tail (5) is steadier still
// but the walk shrinks to 4 nodes and no longer dominates a publish.
func selectiveConfig() workload.SubscriptionConfig {
	cfg := workload.DefaultSubscriptionConfig()
	cfg.NameLengthMax = 1
	narrow := workload.PriceParams()
	narrow.Q0, narrow.Q1, narrow.Q2 = 0, 0, 0
	narrow.ParetoScale, narrow.ParetoAlpha = 0.25, 1.5
	cfg.Price, cfg.Volume = narrow, narrow
	return cfg
}

// inputs is everything a run feeds the program under test. It is a pure
// function of the workload and the seed.
type inputs struct {
	rects []geometry.Rect // the initial subscription population
	// fresh is the pool the churn workload draws new subscriptions
	// from, in order, wrapping around.
	fresh    []geometry.Rect
	ring     []geometry.Point
	payloads [][]byte // payloads[i] goes with ring[i]
}

// putHeader stamps a wire payload with its publication's global index
// and send time.
func putHeader(b []byte, pub int, sentNS int64) {
	binary.LittleEndian.PutUint64(b, uint64(pub))
	binary.LittleEndian.PutUint64(b[8:], uint64(sentNS))
}

func generate(sp spec, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}

	model, err := workload.StockPublications(9)
	if err != nil {
		return nil, err
	}
	in.ring = model.SampleN(rng, ringSize)

	in.payloads = make([][]byte, ringSize)
	for i := range in.payloads {
		p := make([]byte, sp.payload)
		rng.Read(p)
		binary.LittleEndian.PutUint64(p, uint64(i))
		in.payloads[i] = p
	}

	if sp.wire {
		in.rects = broadPairs(rng, in.ring, sp.subs)
		return in, nil
	}
	if sp.durable {
		in.rects = partition(in.ring, sp.subs)
		return in, nil
	}

	cfg := workload.DefaultSubscriptionConfig()
	if sp.selective {
		cfg = selectiveConfig()
	}
	g, err := topology.Generate(topology.DefaultConfig(), rng)
	if err != nil {
		return nil, err
	}
	paper := func(n int) ([]geometry.Rect, error) {
		cfg.Count = n
		placed, err := workload.GenerateSubscriptions(g, workload.StockSpace(), cfg, rng)
		if err != nil {
			return nil, err
		}
		out := make([]geometry.Rect, len(placed))
		for i, p := range placed {
			out[i] = p.Rect
		}
		// The generator emits block by block; shuffle so arrival order
		// (and therefore shard and overlay membership) is unbiased.
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out, nil
	}
	if in.rects, err = paper(sp.subs); err != nil {
		return nil, err
	}
	if sp.churn {
		if in.fresh, err = paper(1 << 15); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// partition builds n subscriptions that are wildcards on every dimension
// but the name, which they cut into n consecutive intervals holding
// equally many ring points: every publication matches exactly one of
// them. Paper-model subscriptions gave a hundred subscribers a fan-out
// anywhere from 1.1 to 1.8 depending on the seed, and deliveries per
// second followed; here the durable workload's fan-out is the constant 1
// and the log is all that is left to measure.
func partition(ring []geometry.Point, n int) []geometry.Rect {
	dims := len(ring[0])
	names := make([]float64, len(ring))
	for i, p := range ring {
		names[i] = p[workload.DimName]
	}
	sort.Float64s(names)
	out := make([]geometry.Rect, n)
	lo := math.Inf(-1)
	for i := range out {
		hi := math.Inf(1)
		if i < n-1 {
			hi = names[(i+1)*len(names)/n]
		}
		out[i] = geometry.FullRect(dims)
		out[i][workload.DimName] = geometry.NewInterval(lo, hi)
		lo = hi
	}
	return out
}

// broadPairs builds n subscriptions that are wildcards on three
// dimensions and a half-range on the fourth. They come in complementary
// pairs — (-inf, x] and (x, +inf) on the same dimension — so every
// publication matches exactly n/2 of them whatever the seed: the wire
// workload's fan-out is a constant, not a sample.
func broadPairs(rng *rand.Rand, ring []geometry.Point, n int) []geometry.Rect {
	dims := len(ring[0])
	out := make([]geometry.Rect, 0, n)
	for len(out) < n {
		d := rng.Intn(dims)
		x := ring[rng.Intn(len(ring))][d]
		lo, hi := geometry.FullRect(dims), geometry.FullRect(dims)
		lo[d], hi[d] = geometry.AtMost(x), geometry.AtLeast(x)
		out = append(out, lo, hi)
	}
	return out[:n]
}
