package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/power"
	"repro/internal/service"
	"repro/internal/sfg"
	"repro/internal/synth"
	"repro/internal/trace"
)

// The serve workload: statsimd's handler tree on a loopback listener,
// configured as cmd/statsimd configures it by default except for
// -cache 4 and a fresh -cache-dir, and two closed-loop clients pulling
// from one seeded request sequence.
const (
	serveClients = 2
	// Profiles of 100k instructions reduced to 10k-instruction traces,
	// a tenth of statsimd's defaults, make requests cheap enough that a
	// run holds several hundred of them.
	serveN      = 100_000
	serveTarget = 10_000
	serveCache  = 4
	// Each block of serveBlock requests holds exactly serveSweeps sweeps
	// (10%), serveRejects simulates with LSQ > RUU (2.5%) and
	// serveRepeats simulates repeating an earlier tuple (43% of the
	// simulates), in seeded positions. Two of the sweeps are a pair: an
	// original and its partner for the other update policy.
	serveBlock   = 40
	serveSweeps  = 4
	serveRejects = 1
	serveRepeats = 15
	// A cycle of serveCycle blocks sends every personality one pair, so
	// runs of whole cycles have the same mix, and the same count of
	// known-defect answers, on every seed.
	serveCycle = 6
	// One request in serveReuse of each kind reuses the spec of the
	// request before it; the others go to a spec not asked for in the
	// last serveFar requests. With 4 cache slots, that fixes the share
	// of requests that find their profile cached near what uniformly
	// spread specs give on average, on every seed.
	serveReuse = 4
	serveFar   = 8
	// serveBlockSeconds sizes the measured phase: whole cycles, one
	// block per serveBlockSeconds of --seconds, about --seconds of work
	// on the reference host (~24 requests a second). The clients always
	// get through all of it, so what a run checks depends on --seconds
	// alone.
	serveBlockSeconds = 1.7
	// serveSlices splits the measured phase; between slices the clients
	// drain and the host's speed is sampled.
	serveSlices = 20
	// serveParallelism is the number of cores the measured phase keeps
	// busy on average: process CPU time over wall time, 1.6 on the
	// 2-vCPU host the benchmark was built on. Simulate latencies, the
	// request rate and the set-up's steps are normalised for work that
	// parallel; sweeps, which keep both pool workers busy, for all-core
	// work. A set-up step keeps about one core busy, but the daemon
	// moves it between threads, and while a neighbour held one core the
	// one-thread kernel alone missed most of the slowdown (NOTES.md,
	// "Host-speed normalisation").
	serveParallelism = 1.6
)

// serveBlocks is the number of blocks a run of the given length sends.
func serveBlocks(seconds float64) int {
	return serveCycle * max(1, int(math.Round(seconds/serveBlockSeconds/serveCycle)))
}

// servePersonalities are the programs behind the 12 profile specs (each
// with delayed and immediate update). gzip is small; the other five are
// the ones whose delayed/immediate pairs share a journal fingerprint.
var servePersonalities = []string{"gzip", "gcc", "parser", "twolf", "vpr", "bzip2"}

// journalCollides reports whether a personality's delayed and immediate
// graphs share a sweep-journal fingerprint (the journal-shape-key
// defect).
func journalCollides(workload string) bool {
	switch workload {
	case "parser", "twolf", "vpr", "gcc", "bzip2":
		return true
	}
	return false
}

type reqKind int

const (
	kindSimulate reqKind = iota
	kindReject
	kindSweep
)

// serveReq is one request of the sequence.
type serveReq struct {
	kind  reqKind
	spec  int // index into specs
	cfg   service.ConfigSpec
	seed  uint64 // trace seed
	tuple int    // simulate: distinct tuple ID
	row   int    // sweep: the row the check re-simulates
	// partner marks a sweep re-sent for the other update policy of the
	// sweep at index orig, with the same trace seed.
	partner bool
	orig    int
}

// tupleKey identifies a simulate tuple's answer.
type tupleKey struct {
	spec int
	cfg  service.ConfigSpec
	seed uint64
}

func serveSpecs() []service.ProfileSpec {
	var specs []service.ProfileSpec
	for _, name := range servePersonalities {
		for _, imm := range []bool{false, true} {
			specs = append(specs, service.ProfileSpec{Workload: name, K: 1, N: serveN, Seed: streamSeed, Immediate: imm})
		}
	}
	return specs
}

// Slot kinds of a block.
const (
	slotFresh = iota
	slotRepeat
	slotReject
	slotSweep
	slotPair
)

// cycle hands out indices in seeded permutations of 0..n-1, so every
// index comes up about as often as any other.
type cycle struct {
	rng  *splitmix
	n    int
	perm []int
}

func (c *cycle) refill() {
	perm := make([]int, c.n)
	for i := range perm {
		perm[i] = i
	}
	c.rng.shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	c.perm = append(c.perm, perm...)
}

func (c *cycle) next() int { return c.nextAvoiding(func(int) bool { return false }) }

// nextAvoiding hands out the first index left in the permutations for
// which avoid is false, and leaves the ones it skipped for later; when
// two more permutations hold none, it hands out the first one left.
func (c *cycle) nextAvoiding(avoid func(int) bool) int {
	for tries := 0; ; tries++ {
		for i, x := range c.perm {
			if !avoid(x) || tries > 1 {
				c.perm = append(c.perm[:i:i], c.perm[i+1:]...)
				return x
			}
		}
		c.refill()
	}
}

// take hands out index x, counting it against the permutations as if
// it had come up in turn.
func (c *cycle) take(x int) int {
	return c.nextAvoiding(func(y int) bool { return y != x })
}

// serveSequence generates blocks blocks of requests from the seed. The
// clients pull them from the sequence in order, so the order requests
// start in is the sequence order. No request traces exist to model
// locality on (NOTES.md, "serve traffic"), so the benchmark fixes how
// often a request reuses a recent profile rather than leaving it to
// the draw: one request in serveReuse of each kind (fresh simulate,
// repeat, reject, fresh sweep), at a seeded place in each run of
// serveReuse, goes to the spec of the request before it; the others go
// to a spec not asked for in the last serveFar requests, taken from
// seeded permutations of the 12, one per kind. A repeat re-sends an
// earlier tuple of its spec. A pair is a fresh sweep on a personality
// taken from seeded permutations of the six, sent once neither of its
// specs was asked for in the last serveFar requests, followed two
// requests later by its partner: the same sweep for the other update
// policy with the same trace seed, what a DSE script comparing the two
// policies sends. A partner is sent only once its original has been
// answered.
func serveSequence(seed uint64, blocks int) ([]serveReq, []tupleKey) {
	rng := &splitmix{s: seed}
	nspecs := len(serveSpecs())
	var cycles, reuse [slotPair + 1]cycle
	for i := range cycles {
		cycles[i] = cycle{rng: rng, n: nspecs}
		reuse[i] = cycle{rng: rng, n: serveReuse}
	}
	cycles[slotPair].n = len(servePersonalities)
	sizes := []int{16, 32, 48, 64, 96, 128}
	lsqs := []int{8, 16, 24, 32, 48, 64}
	widths := []int{2, 4, 6, 8}
	nrows := len(service.QuickGrid())
	var seq []serveReq
	var tuples []tupleKey
	tuplesOf := make([][]int, nspecs)
	seen := map[tupleKey]int{}
	// pair is the personality of a pair waiting until neither of its
	// specs was asked for in the last serveFar requests; partner is a
	// pair's partner waiting for its place in the sequence.
	pair := -1
	var partner *serveReq
	inWindow := func(spec int) bool {
		for i := max(0, len(seq)-serveFar); i < len(seq); i++ {
			if seq[i].spec == spec {
				return true
			}
		}
		return false
	}
	recent := func(spec int) bool {
		return inWindow(spec) || spec/2 == pair || partner != nil && partner.spec == spec
	}
	// A block's kinds; with the pair's partner, a block is serveBlock
	// requests.
	var kinds []int
	for i := 0; i < serveBlock-1; i++ {
		switch {
		case i < serveSweeps-2:
			kinds = append(kinds, slotSweep)
		case i == serveSweeps-2:
			kinds = append(kinds, slotPair)
		case i < serveSweeps-1+serveRejects:
			kinds = append(kinds, slotReject)
		case i < serveSweeps-1+serveRejects+serveRepeats:
			kinds = append(kinds, slotRepeat)
		default:
			kinds = append(kinds, slotFresh)
		}
	}
	var todo []int
	for b := 0; b < blocks; b++ {
		rng.shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		todo = append(todo, kinds...)
	}
	nsweeps := 0
	for len(seq) < blocks*serveBlock {
		nextPair := len(todo) > 0 && todo[0] == slotPair
		if partner != nil && (len(todo) == 0 || len(seq) == partner.orig+2 || pair >= 0 && nextPair) {
			seq, partner = append(seq, *partner), nil
			continue
		}
		var k, spec int
		switch {
		case pair >= 0 && partner == nil && (len(todo) == 0 || nextPair || !inWindow(2*pair) && !inWindow(2*pair+1)):
			// The waiting pair goes now: its specs have left the window,
			// or it cannot wait any longer.
			k, spec, pair = slotPair, 2*pair+rng.intn(2), -1
		case nextPair:
			// Every personality gets one pair per cycle, which waits
			// until neither of its specs was asked for lately.
			todo, pair = todo[1:], cycles[slotPair].next()
			continue
		default:
			k, todo = todo[0], todo[1:]
			if reuse[k].next() == 0 && len(seq) > 0 {
				spec = cycles[k].take(seq[len(seq)-1].spec)
			} else {
				spec = cycles[k].nextAvoiding(recent)
			}
		}
		switch {
		case k == slotSweep || k == slotPair:
			nsweeps++
			q := serveReq{kind: kindSweep, spec: spec, seed: uint64(nsweeps), row: rng.intn(nrows)}
			if k == slotPair {
				partner = &serveReq{kind: kindSweep, spec: spec ^ 1, seed: q.seed, row: rng.intn(nrows), partner: true, orig: len(seq)}
			}
			seq = append(seq, q)
		case k == slotReject:
			// The default LSQ (32) exceeds these RUU sizes: the model
			// cannot run the configuration, so a 4xx is the answer.
			seq = append(seq, serveReq{kind: kindReject, spec: spec, seed: simSeed,
				cfg: service.ConfigSpec{RUU: []int{8, 16}[rng.intn(2)]}})
		case k == slotRepeat && len(tuplesOf[spec]) > 0:
			t := tuplesOf[spec][rng.intn(len(tuplesOf[spec]))]
			tk := tuples[t]
			seq = append(seq, serveReq{kind: kindSimulate, spec: tk.spec, cfg: tk.cfg, seed: tk.seed, tuple: t})
		default:
			ruu := sizes[rng.intn(len(sizes))]
			lsq := lsqs[rng.intn(len(lsqs))]
			for lsq > ruu {
				lsq = lsqs[rng.intn(len(lsqs))]
			}
			tk := tupleKey{spec: spec, seed: uint64(1 + rng.intn(3)), cfg: service.ConfigSpec{
				RUU: ruu, LSQ: lsq, Decode: widths[rng.intn(4)], Issue: widths[rng.intn(4)], Commit: widths[rng.intn(4)]}}
			t, ok := seen[tk]
			if !ok {
				t = len(tuples)
				seen[tk] = t
				tuples = append(tuples, tk)
				tuplesOf[spec] = append(tuplesOf[spec], t)
			}
			seq = append(seq, serveReq{kind: kindSimulate, spec: tk.spec, cfg: tk.cfg, seed: tk.seed, tuple: t})
		}
	}
	return seq, tuples
}

// daemon is one statsimd instance on a loopback listener.
type daemon struct {
	svc    *service.Server
	hs     *http.Server
	served chan error
	base   string
	dir    string
	client *http.Client
}

func startDaemon(dir string) (*daemon, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	svc, err := service.New(service.Options{
		CacheSize:              serveCache,
		CacheDir:               dir,
		JobTimeout:             5 * time.Minute,
		MaxProfileInstructions: 50_000_000,
		Retry:                  service.RetryPolicy{Attempts: 3, BaseDelay: 100 * time.Millisecond},
		Logger:                 slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close(context.Background())
		return nil, err
	}
	d := &daemon{
		svc:    svc,
		hs:     &http.Server{Handler: svc.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		dir:    dir,
		client: &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the listener down, drains the daemon, waits for the serve
// goroutine and removes the cache directory.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.client.CloseIdleConnections()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := d.svc.Close(ctx); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// post sends one JSON request and returns the status and body.
func (d *daemon) post(path string, body any) (int, []byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.client.Post(d.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func (d *daemon) metrics() (service.MetricsSnapshot, error) {
	var m service.MetricsSnapshot
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// outcome is what one client saw for one request.
type outcome struct {
	idx    int
	status int
	at     unit
	body   []byte
	err    error
}

func runServe(r *run) error {
	specs := serveSpecs()
	seq, tuples := serveSequence(r.seed, serveBlocks(r.seconds))
	cfg := cpu.DefaultConfig()

	var d *daemon
	var profs []unit
	rep := 0
	setup := func() error {
		if d != nil {
			// Tearing down the previous set-up is not part of this one.
			if err := d.stop(); err != nil {
				return err
			}
			d, r.stepT0 = nil, time.Now()
		}
		var err error
		rep++
		d, err = startDaemon(filepath.Join(outDir, fmt.Sprintf("serve-%d-%d", os.Getpid(), rep)))
		if err != nil {
			return err
		}
		r.step()
		// Pre-profile every spec; with 4 slots, 8 of the 12 stay only
		// in the durable store.
		for _, spec := range specs {
			code, body, err := d.post("/v1/profile", service.ProfileRequest{ProfileSpec: spec})
			if err != nil {
				return err
			}
			if code != http.StatusOK {
				return fmt.Errorf("profile %+v: %d %s", spec, code, body)
			}
			profs = append(profs, r.step())
		}
		return nil
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	// The untraced run times three set-ups of ~0.6 s each.
	r.setupPar = serveParallelism
	if r.tr != nil {
		if err := setup(); err != nil {
			return err
		}
	} else if err := r.timeSetup(3, setup); err != nil {
		return err
	}

	m0, err := d.metrics()
	if err != nil {
		return err
	}
	outs, slices := serveLoad(r, d, specs, seq)
	r.markMeasured()
	m1, err := d.metrics()
	if err != nil {
		return err
	}
	err = d.stop()
	d = nil
	if err != nil {
		return err
	}
	return checkServe(r, cfg, specs, seq, tuples, outs, slices, profs, m0, m1)
}

// serveLoad runs the two closed-loop clients through the whole
// sequence and returns what they saw, in sequence order, and the times
// of the slices of about --seconds/serveSlices the phase was cut into;
// the host's speed is sampled between slices, while the clients wait.
// A client that is free takes the next request of the sequence; a
// partner waits for its original's answer first.
func serveLoad(r *run, d *daemon, specs []service.ProfileSpec, seq []serveReq) ([]outcome, []unit) {
	answered := make([]chan struct{}, len(seq))
	for _, q := range seq {
		if q.partner {
			answered[q.orig] = make(chan struct{})
		}
	}
	next := 0
	var mu sync.Mutex
	var outs []outcome
	var slices []unit
	slice := time.Duration(r.seconds / serveSlices * float64(time.Second))
	r.cal.sample()
	r.calN.sample()
	for next < len(seq) {
		u := unit{t0: time.Now()}
		deadline := u.t0.Add(slice)
		var wg sync.WaitGroup
		for c := 0; c < serveClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					mu.Lock()
					i := next
					next++
					mu.Unlock()
					if i >= len(seq) {
						return
					}
					q := seq[i]
					if q.partner {
						<-answered[q.orig]
					}
					var path string
					var body any
					switch q.kind {
					case kindSweep:
						path, body = "/v1/sweep", service.SweepRequest{Profile: specs[q.spec], Grid: "quick", Target: serveTarget, SimSeed: q.seed}
					default:
						path, body = "/v1/simulate", service.SimulateRequest{Profile: specs[q.spec], Config: q.cfg, Target: serveTarget, SimSeed: q.seed}
					}
					id := r.tr.start(0, "service.request", fmt.Sprintf("req-%d", i))
					o := outcome{idx: i, at: unit{t0: time.Now()}}
					o.status, o.body, o.err = d.post(path, body)
					o.at.t1 = time.Now()
					r.tr.end(id)
					if answered[i] != nil {
						close(answered[i])
					}
					mu.Lock()
					outs = append(outs, o)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		u.t1 = r.calN.sample()
		r.cal.sample()
		slices = append(slices, u)
	}
	sort.Slice(outs, func(a, b int) bool { return outs[a].idx < outs[b].idx })
	return outs, slices
}

// wire is the daemon's wire form of a simulation, computed here from
// core.Metrics exactly as the SimMetrics fields are documented.
func wire(m core.Metrics) service.SimMetrics {
	return service.SimMetrics{
		IPC:              m.IPC(),
		EPC:              m.EPC(),
		EDP:              m.EDP(),
		Cycles:           m.Cycles,
		Instructions:     m.Instructions,
		MispredictsPerKI: m.Branch.MispredictsPerKI(m.Instructions),
	}
}

// applyConfig overlays a request's config on the Table 2 baseline; zero
// fields keep the baseline, as the daemon documents.
func applyConfig(c service.ConfigSpec, base cpu.Config) cpu.Config {
	for _, f := range []struct {
		v   int
		dst *int
	}{{c.RUU, &base.RUUSize}, {c.LSQ, &base.LSQSize}, {c.Decode, &base.DecodeWidth},
		{c.Issue, &base.IssueWidth}, {c.Commit, &base.CommitWidth}, {c.IFQ, &base.IFQSize}} {
		if f.v > 0 {
			*f.dst = f.v
		}
	}
	return base
}

// checkServe profiles every spec afresh, re-simulates every distinct
// tuple and one seeded row of every sweep, classifies each answer, and
// sets the metrics.
func checkServe(r *run, cfg cpu.Config, specs []service.ProfileSpec, seq []serveReq, tuples []tupleKey,
	outs []outcome, slices, profs []unit, m0, m1 service.MetricsSnapshot) error {
	root := r.tr.start(0, "check", "check")
	defer r.tr.end(root)
	graphs := make([]*sfg.Graph, len(specs))
	var b bufs
	for i, spec := range specs {
		w, err := loadTraced(r.tr, root, spec.Workload)
		if err != nil {
			return err
		}
		opts := core.ProfileOptions{K: spec.K, ImmediateUpdate: spec.Immediate}
		if r.tr == nil {
			graphs[i], err = core.Profile(cfg, w.Stream(spec.Seed, 0, spec.N), opts)
		} else {
			r.tr.do(root, "program.exec", "check", func() { b.stream = drain(w.Stream(spec.Seed, 0, spec.N), b.stream[:0]) })
			r.tr.add("program.insts", float64(len(b.stream)))
			graphs[i], err = profileTraced(r.tr, root, "check", cfg, b.stream, opts)
		}
		if err != nil {
			return err
		}
		graphs[i].Freeze()
	}
	b.stream = nil

	// Expected answers: every distinct tuple met, and every sweep row a
	// check needs, for the spec swept and, for a partner re-send, for
	// the spec of the original (to recognise the journal defect).
	type job struct {
		spec int
		cfg  cpu.Config
		seed uint64
	}
	jobs := map[job]service.SimMetrics{}
	quick := service.QuickGrid()
	for _, o := range outs {
		q := seq[o.idx]
		switch q.kind {
		case kindSimulate:
			jobs[job{q.spec, applyConfig(q.cfg, cfg), q.seed}] = service.SimMetrics{}
		case kindSweep:
			pc := quick[q.row].Apply(cfg)
			jobs[job{q.spec, pc, q.seed}] = service.SimMetrics{}
			if q.partner {
				jobs[job{q.spec ^ 1, pc, q.seed}] = service.SimMetrics{}
			}
		}
	}
	var list []job
	for j := range jobs {
		list = append(list, j)
	}
	res := make([]service.SimMetrics, len(list))
	errs := make([]error, len(list))
	splitOK := make([]bool, len(list))
	var next atomic.Int64
	var wg sync.WaitGroup
	var splitS, plainS atomic.Int64
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sb []trace.DynInst
			for {
				k := int(next.Add(1) - 1)
				if k >= len(list) {
					return
				}
				j := list[k]
				g := graphs[j.spec]
				red := core.ReductionFor(g, serveTarget)
				t0 := time.Now()
				m, err := core.StatSim(j.cfg, g, red, j.seed)
				plainS.Add(int64(time.Since(t0)))
				if err != nil {
					errs[k] = err
					continue
				}
				res[k] = wire(m)
				if r.tr != nil {
					t0 := time.Now()
					var sm core.Metrics
					sm, sb, errs[k] = statSimTraced(r.tr, root, fmt.Sprintf("check-%d", k), j.cfg, g, red, j.seed, sb)
					splitS.Add(int64(time.Since(t0)))
					splitOK[k] = same(sm, m)
				}
			}
		}()
	}
	wg.Wait()
	for k, j := range list {
		if errs[k] != nil {
			return errs[k]
		}
		jobs[j] = res[k]
		if r.tr != nil {
			r.chk.check(splitOK[k], "traced path differs from core.StatSim for %+v", j)
		}
	}
	if r.tr != nil {
		r.tr.add("trace.overhead_pct", (float64(splitS.Load())/float64(plainS.Load())-1)*100)
	}

	// Classify every answer. Failed simulates count as latency misses.
	// Client latencies are kept raw and in reference-host units.
	var simLat, simRaw, sweepLat, sweepRaw, srvMS, ovhMS, hitMS, missMS []float64
	points, storeHits, repeats := 0, 0, 0
	tupleSeen := make([]bool, len(tuples))
	for _, o := range outs {
		q := seq[o.idx]
		ok := false
		var sr service.SimulateResponse
		var wr service.SweepResponse
		switch q.kind {
		case kindSimulate:
			repeated := tupleSeen[q.tuple]
			tupleSeen[q.tuple] = true
			if repeated {
				repeats++
			}
			want := jobs[job{q.spec, applyConfig(q.cfg, cfg), q.seed}]
			if o.err == nil && o.status == http.StatusOK && json.Unmarshal(o.body, &sr) == nil {
				ok = r.chk.check(sr.Metrics == want, "simulate %d (%s %+v seed %d): got %+v want %+v",
					o.idx, specName(specs[q.spec]), q.cfg, q.seed, sr.Metrics, want)
				points++
				srvMS = append(srvMS, sr.ElapsedMS)
				ovhMS = append(ovhMS, o.at.rawS()*1e3-sr.ElapsedMS)
				if sr.Served == service.ServedFromStore {
					if repeated {
						storeHits++
					}
					hitMS = append(hitMS, o.at.rawS()*1e3)
				}
				if !sr.ProfileCached {
					missMS = append(missMS, o.at.rawS()*1e3)
				}
			} else {
				r.chk.check(false, "simulate %d: status %d err %v: %s", o.idx, o.status, o.err, o.body)
			}
		case kindReject:
			switch {
			case o.err == nil && o.status >= 400 && o.status < 500:
				ok = r.chk.check(true, "")
			case o.err == nil && o.status == http.StatusInternalServerError && strings.Contains(string(o.body), "panic"):
				r.chk.knownDefect("lsq-over-ruu-500")
			default:
				r.chk.check(false, "reject %d (%+v): status %d err %v: %s", o.idx, q.cfg, o.status, o.err, o.body)
			}
		case kindSweep:
			sweepLat = append(sweepLat, r.calN.normS(o.at)*1e3)
			sweepRaw = append(sweepRaw, o.at.rawS()*1e3)
			if o.err != nil || o.status != http.StatusOK || json.Unmarshal(o.body, &wr) != nil || len(wr.Results) != len(quick) {
				r.chk.check(false, "sweep %d: status %d err %v: %.200s", o.idx, o.status, o.err, o.body)
				continue
			}
			points += len(wr.Results)
			srvMS = append(srvMS, wr.ElapsedMS)
			ovhMS = append(ovhMS, o.at.rawS()*1e3-wr.ElapsedMS)
			if !wr.ProfileCached {
				missMS = append(missMS, o.at.rawS()*1e3)
			}
			pc := quick[q.row].Apply(cfg)
			got := wr.Results[q.row]
			switch {
			case got.Point == quick[q.row] && got.Metrics == jobs[job{q.spec, pc, q.seed}]:
				r.chk.check(true, "")
			case q.partner && journalCollides(specs[q.spec].Workload) && got.Point == quick[q.row] &&
				got.Metrics == jobs[job{q.spec ^ 1, pc, q.seed}]:
				r.chk.knownDefect("journal-shape-key")
			default:
				r.chk.check(false, "sweep %d (%s, partner %v) row %d: got %+v", o.idx, specName(specs[q.spec]), q.partner, q.row, got.Metrics)
			}
			continue
		}
		if q.kind != kindSweep {
			lat, raw := blendS(&r.cal, &r.calN, serveParallelism, o.at)*1e3, o.at.rawS()*1e3
			if !ok {
				lat, raw = math.Inf(1), math.Inf(1)
			}
			simLat, simRaw = append(simLat, lat), append(simRaw, raw)
		}
	}

	if r.tr != nil {
		serveLayers(r, m0, m1, srvMS, ovhMS, hitMS, missMS, storeHits, repeats)
		return serveLockstep(r, cfg, graphs, seq, outs)
	}
	wallS, wallRaw := 0.0, 0.0
	for _, u := range slices {
		wallS += blendS(&r.cal, &r.calN, serveParallelism, u)
		wallRaw += u.rawS()
	}
	r.setNorm("req_per_s", float64(len(outs))/wallS, float64(len(outs))/wallRaw, "req/s")
	r.setNorm("points_per_s", float64(points)/wallS, float64(points)/wallRaw, "points/s")
	r.setNorm("simulate_p50_ms", missQuantile(simLat, 0.5, wallS*1e3), missQuantile(simRaw, 0.5, wallRaw*1e3), "ms")
	r.setNorm("simulate_p95_ms", missQuantile(simLat, 0.95, wallS*1e3), missQuantile(simRaw, 0.95, wallRaw*1e3), "ms")
	r.setNorm("sweep_p50_ms", median(sweepLat), median(sweepRaw), "ms")
	r.noteSamples("simulate_p50_ms", len(simLat), 0.5)
	r.noteSamples("simulate_p95_ms", len(simLat), 0.95)
	r.noteSamples("sweep_p50_ms", len(sweepLat), 0.5)
	r.setProfiledRate(profs, len(specs), serveN)

	// Accuracy at the Table 2 point, from the delayed-update profiles.
	var ss, eds []core.Metrics
	for i := 0; i < len(specs); i += 2 {
		m, err := core.StatSim(cfg, graphs[i], core.ReductionFor(graphs[i], serveTarget), simSeed)
		if err != nil {
			return err
		}
		w, err := core.LoadWorkload(specs[i].Workload)
		if err != nil {
			return err
		}
		ss = append(ss, m)
		eds = append(eds, core.Reference(cfg, w.Stream(streamSeed, 0, serveN)))
	}
	r.set("ipc_err_pct", ipcErrPct(ss, eds), "%")
	return nil
}

func specName(s service.ProfileSpec) string {
	if s.Immediate {
		return s.Workload + "/immediate"
	}
	return s.Workload + "/delayed"
}

// missQuantile is quantile over latencies where a failed request is +Inf;
// when the quantile falls on a failure it reports ceil, the run's wall
// time, which no answered request can exceed.
func missQuantile(xs []float64, q, ceil float64) float64 {
	v := quantile(xs, q)
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return ceil
	}
	return v
}

// statSimTraced is core.StatSim split into its modules.
func statSimTraced(tr *tracer, parent int, req string, cfg cpu.Config, g *sfg.Graph, red, seed uint64, buf []trace.DynInst) (core.Metrics, []trace.DynInst, error) {
	var rd *synth.Reduced
	var err error
	tr.do(parent, "synth.reduce", req, func() { rd, err = synth.Reduce(g, synth.Options{R: red, Seed: seed}) })
	if err != nil {
		return core.Metrics{}, buf, err
	}
	tr.do(parent, "synth.generate", req, func() { buf = drain(rd.NewTrace(seed), buf[:0]) })
	tr.add("synth.generated_insts", float64(len(buf)))
	var res cpu.Result
	tr.do(parent, "cpu.simulate", req, func() { res = cpu.NewTraceDriven(cfg, trace.NewSliceSource(buf)).Run() })
	tr.add("cpu.simulated_insts", float64(res.Instructions))
	var pw power.Breakdown
	tr.do(parent, "power.estimate", req, func() { pw = power.Estimate(cfg, res) })
	return core.Metrics{Result: res, Power: pw}, buf, nil
}

// serveLayers sets the service and resultstore counts of the traced run:
// client-side figures from the responses, daemon-side ones as the
// change in /metrics over the measured phase.
func serveLayers(r *run, m0, m1 service.MetricsSnapshot, srvMS, ovhMS, hitMS, missMS []float64, storeHits, repeats int) {
	tr := r.tr
	hits := float64(m1.Cache.Hits - m0.Cache.Hits)
	misses := float64(m1.Cache.Misses - m0.Cache.Misses)
	if hits+misses > 0 {
		tr.add("service.cache_hit_rate", hits/(hits+misses))
	}
	tr.add("service.cache_evictions", float64(m1.Cache.Evictions-m0.Cache.Evictions))
	if m0.Store != nil && m1.Store != nil {
		tr.add("service.store_loads", float64(m1.Store.Loads-m0.Store.Loads))
	}
	tr.add("service.sweep_points_resumed", float64(m1.Robustness.SweepPointsResumed-m0.Robustness.SweepPointsResumed))
	tr.add("service.job_retries", float64(m1.Robustness.Retries-m0.Robustness.Retries))
	tr.add("service.shed", float64(m1.Robustness.Shed-m0.Robustness.Shed))
	tr.add("service.server_ms_p50", median(srvMS))
	tr.add("service.overhead_ms_p50", median(ovhMS))
	tr.add("service.profile_miss_ms_p50", median(missMS))
	if repeats > 0 {
		tr.add("resultstore.hit_rate", float64(storeHits)/float64(repeats))
	}
	tr.add("resultstore.hit_ms_p50", median(hitMS))
	if m0.Oracle != nil && m1.Oracle != nil && m0.Oracle.Store != nil && m1.Oracle.Store != nil {
		tr.add("resultstore.puts", float64(m1.Oracle.Store.Appends-m0.Oracle.Store.Appends))
	}
}

// serveLockstep replays each distinct sweep the clients sent through the
// split lockstep engine, so the traced run shows what the daemon's
// sweeps cost in lockstep's modules.
func serveLockstep(r *run, cfg cpu.Config, graphs []*sfg.Graph, seq []serveReq, outs []outcome) error {
	pool := service.NewPool(serveClients)
	defer pool.Drain(context.Background())
	done := map[[2]uint64]bool{}
	for _, o := range outs {
		q := seq[o.idx]
		id := [2]uint64{uint64(q.spec), q.seed}
		if q.kind != kindSweep || done[id] {
			continue
		}
		done[id] = true
		g := graphs[q.spec]
		src := sweepSrc{name: specName(serveSpecs()[q.spec]), g: g, red: core.ReductionFor(g, serveTarget), seed: q.seed}
		req := fmt.Sprintf("sweep-%d-%d", q.spec, q.seed)
		root := r.tr.start(0, "grid", req)
		_, _, err := sweepSplit(context.Background(), r.tr, root, req, pool, serveClients, cfg, src, service.QuickGrid())
		r.tr.end(root)
		if err != nil {
			return err
		}
	}
	return nil
}
