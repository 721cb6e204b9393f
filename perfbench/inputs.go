package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/apps"
	"repro/internal/revision"
	"repro/internal/trace"
	"repro/internal/workload"
)

// subSeed derives an independent seed for one input stream from the
// run seed (splitmix64 finalizer), so adding a stream never shifts the
// draws of another.
func subSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*(stream+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) & (1<<63 - 1))
}

// Seed streams.
const (
	streamFleetPool = iota + 1
	streamHotCorpus
	streamHotSchedule
	streamChains = 1000
	streamProc   = 2000 // worker k's seed is subSeed(seed, streamProc+k)
)

// stamp returns the bundle as a phone uploads it: scrubbed, with its
// content key. The server stores exactly this (its re-scrub is a no-op),
// so it is also the form a pre-written log holds.
func stamp(b *trace.TraceBundle) *trace.TraceBundle {
	s := trace.ScrubBundle(b)
	s.Key = trace.ContentKey(s)
	return s
}

// ---- ingest-fleet ----

// Fleet input shape.
const (
	fleetUsersPerApp = 10
	fleetPhases      = 4
	fleetBatch       = 8    // sessions per Upload call: one phone's batch
	fleetEarlier     = 2000 // sessions already in the logs at restart
)

// fleetInputs is the ingest-fleet load: a pool of real workload
// sessions from every catalog app, and the stream order in which they
// are uploaded.
type fleetInputs struct {
	// pool[a][u] is app a's session of user u.
	pool [][]*trace.TraceBundle
}

// genFleet simulates fleetUsersPerApp sessions of every catalog app.
func genFleet(seed int64) (*fleetInputs, error) {
	catalog, err := apps.Catalog()
	if err != nil {
		return nil, err
	}
	in := &fleetInputs{pool: make([][]*trace.TraceBundle, len(catalog))}
	for i, app := range catalog {
		cfg := workload.DefaultConfig(app, subSeed(seed, streamFleetPool+uint64(i)*7919))
		cfg.Users = fleetUsersPerApp
		cfg.BrowsePhases = fleetPhases
		res, err := workload.Generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("fleet inputs: %s: %w", app.AppID, err)
		}
		in.pool[i] = res.Bundles
	}
	return in, nil
}

// item returns stream item k. Items interleave across apps (k mod the
// app count), then users; once the pool is exhausted the stream starts
// a new round in which every phone uploads a later session, told
// apart by a round suffix on its trace id. The returned bundle shares
// its records with the pool and must be treated as read-only.
func (in *fleetInputs) item(k int) *trace.TraceBundle {
	nApps := len(in.pool)
	a := k % nApps
	u := (k / nApps) % fleetUsersPerApp
	round := k / (nApps * fleetUsersPerApp)
	b := in.pool[a][u]
	if round == 0 {
		return b
	}
	c := *b
	c.Event.TraceID = fmt.Sprintf("%s.r%d", b.Event.TraceID, round)
	return &c
}

// clientItem returns client c's j-th upload, after the earlier batch:
// the clients take turns through the stream.
func clientItem(in *fleetInputs, clients, c, j int) *trace.TraceBundle {
	return in.item(fleetEarlier + j*clients + c)
}

// ---- hot-app ----

// Hot-app input shape. The corpus size is the one the serving costs
// in README.md were measured at. A phone is one more user of the app,
// and the workload package models one session per user, so each phone
// uploads one session. The rate follows from what the workload stands
// for, a hot app whose ingest is idle more than 99% of the time: one
// phone's Upload takes 4 to 7 ms on a 2-vCPU VM, so one phone a second
// keeps ingest more than 99% idle.
const (
	hotApp        = "k9mail"
	hotCorpus     = 5000 // sessions replayed at start
	hotPhonesPerS = 1.0  // Poisson arrival rate of phones
	hotBatch      = 1    // sessions each phone uploads
)

// arrival is one phone of the open-loop schedule.
type arrival struct {
	Due   time.Duration // offset from the start of the measured phase
	Batch int           // sessions this phone uploads
}

// hotInputs is the hot-app load: the corpus replayed at start, and
// the phones that upload while it is served.
type hotInputs struct {
	corpus   []*trace.TraceBundle
	schedule []arrival
	// phones[i] holds phone i's batch.
	phones [][]*trace.TraceBundle
}

// hotSchedule draws the open-loop schedule for a window at rate
// phones per second. Gaps between phones are exponential, as in a
// Poisson process, but stratified: the n gaps are the exponential
// distribution's n quantile midpoints, and the seed only orders them.
// Every run then offers exactly the exponential mix of close and far
// arrivals, and runs differ in where they fall, not in how many close
// ones there are (a variance reduction; the rate and the gap
// distribution are those of the Poisson process).
func hotSchedule(seed int64, window time.Duration, rate float64) []arrival {
	rng := rand.New(rand.NewSource(subSeed(seed, streamHotSchedule)))
	n := int(rate * window.Seconds())
	gaps := make([]float64, n)
	for i := range gaps {
		q := (float64(i) + 0.5) / float64(n)
		gaps[i] = -math.Log(1-q) / rate
	}
	rng.Shuffle(n, func(i, j int) { gaps[i], gaps[j] = gaps[j], gaps[i] })
	out := make([]arrival, n)
	t := 0.0
	for i := range out {
		t += gaps[i]
		out[i] = arrival{Due: time.Duration(t * float64(time.Second)), Batch: hotBatch}
	}
	return out
}

// genHot simulates the K9Mail corpus and the phones' sessions in one
// workload run, so phones are further users of the same app.
func genHot(seed int64, window time.Duration) (*hotInputs, error) {
	app, err := apps.ByAppID(hotApp)
	if err != nil {
		return nil, err
	}
	in := &hotInputs{schedule: hotSchedule(seed, window, hotPhonesPerS)}
	sessions := 0
	for _, a := range in.schedule {
		sessions += a.Batch
	}
	cfg := workload.DefaultConfig(app, subSeed(seed, streamHotCorpus))
	cfg.Users = hotCorpus + sessions
	res, err := workload.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("hot-app inputs: %w", err)
	}
	in.corpus = res.Bundles[:hotCorpus]
	rest := res.Bundles[hotCorpus:]
	for _, a := range in.schedule {
		in.phones = append(in.phones, rest[:a.Batch])
		rest = rest[a.Batch:]
	}
	return in, nil
}

// ---- revision-gate ----

// Revision-gate input shape. Chains end on the regression, so every
// hop before it is benign against a healthy baseline — the gate's
// stated precondition — and carry no callback rewires, which the
// revision package reserves for stress chains that need not pass the
// gate. The corpus seed is the revisions experiment's; the run seed
// draws the edits.
const (
	gateApp          = "k9mail"
	gateVersions     = 4
	gateUsers        = 24
	gateCorpusSeed   = 7
	gateChainSets    = 2
	gateEditsPerHop  = 2
	gateRegressionAt = gateVersions - 1
)

// gateChain is one version chain with its per-version corpora.
type gateChain struct {
	Name    string
	Kind    revision.Kind // "" for the clean chain
	Chain   *revision.Chain
	Corpora [][]*trace.TraceBundle
}

// regressionHop reports whether hop h (candidate version h) injects
// the chain's regression.
func (c *gateChain) regressionHop(h int) bool {
	return c.Kind != "" && h == c.Chain.RegressionAt
}

// gateKinds is the chain roster of one set: one per regression kind
// plus a clean chain.
var gateKinds = []revision.Kind{revision.KindHold, revision.KindLoop, revision.KindHot, ""}

// genGate generates gateChainSets sets of chains.
func genGate(seed int64) ([]*gateChain, error) {
	app, err := apps.ByAppID(gateApp)
	if err != nil {
		return nil, err
	}
	var out []*gateChain
	for s := 0; s < gateChainSets; s++ {
		for k, kind := range gateKinds {
			ccfg := revision.ChainConfig{
				App:             app,
				Versions:        gateVersions,
				Seed:            subSeed(seed, streamChains+uint64(s*len(gateKinds)+k)),
				EditsPerVersion: gateEditsPerHop,
				Kind:            kind,
			}
			if kind != "" {
				ccfg.RegressionAt = gateRegressionAt
			}
			chain, err := revision.GenerateChain(ccfg)
			if err != nil {
				return nil, fmt.Errorf("gate inputs: %w", err)
			}
			corpora, err := revision.ChainCorpora(chain, ccfg,
				revision.CorpusConfig{Users: gateUsers, Seed: gateCorpusSeed})
			if err != nil {
				return nil, fmt.Errorf("gate inputs: %w", err)
			}
			name := string(kind)
			if kind == "" {
				name = "clean"
			}
			out = append(out, &gateChain{Name: fmt.Sprintf("%s-%d", name, s), Kind: kind,
				Chain: chain, Corpora: corpora})
		}
	}
	return out, nil
}
