package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"dsm96/internal/core"
	"dsm96/internal/dsm"
	"dsm96/internal/faults"
	"dsm96/internal/params"
	"dsm96/internal/serve"
)

// The serve-mix traffic is what the repository's own client of the
// server sends it: `sweep -chaos -scale tiny -server URL` against a
// fresh dsmserve, then the same sweep again (the cached rerun). One such
// pair is a pass. The sweep's worker pool has one worker per CPU and
// each worker waits for its cell's reply, so the loop is closed with
// serveClients clients, the CPU count of the host the workload was
// sized on. The chaos sweep submits, for every application × protocol,
// a fault-free baseline and then, for each fault seed, a chaos run and
// its repeat (which checks that the fault schedule reproduces). So of a
// pass's requests 2/7 are distinct specs (cache misses: simulation,
// journal writes, fsync, commit) and 5/7 repeats: answered from the
// cache (HTTP plus a hash-verified read), or, when a repeat arrives
// while its first submission still runs, attached to that run
// (deduped). Every client fetches and verifies the result's artifact
// before its next request.
const serveClients = 2

var (
	sweepApps   = []string{"tsp", "water", "radix"}
	sweepProtos = []string{"Base", "I", "I+P+D", "AURC"}
)

// chaosPlan is the chaos sweep's fault plan for one seed: link chaos on
// every pair plus a random controller crash/hang schedule in which each
// node crashes and/or hangs with probability 1/2 in its first 500k
// cycles. It is the plan the chaos sweep builds.
func chaosPlan(seed uint64, nodes int) *faults.Plan {
	return &faults.Plan{
		Seed:    seed,
		Default: faults.Link{Drop: 0.02, Dup: 0.03, Delay: 0.05, DelayMin: 200, DelayMax: 2000},
		Ctrl:    faults.RandomCtrl(seed, nodes, 0.5, 0.5, 500_000),
	}
}

// sweepPass is one pass's requests in submission order: the chaos
// sweep at tiny scale on the default machine, then the sweep again. The
// sweep's fault seeds are 3(seed-1)+1 .. 3(seed-1)+3, so seed 1 sends
// the job specs `sweep -chaos -scale tiny` sends (default seeds 1, 2, 3).
// The tiny scale runs the first sc.serveApps applications and the
// first sc.serveSeeds seeds.
func sweepPass(seed int64, sc scale) ([]*serve.JobSpec, error) {
	cfg := params.Default()
	var sweep []*serve.JobSpec
	for _, app := range sweepApps[:sc.serveApps] {
		for _, proto := range sweepProtos {
			spec := func(jf *serve.JobFaults) *serve.JobSpec {
				return &serve.JobSpec{Schema: serve.JobSchema, App: app, Protocol: proto, Scale: "tiny", Config: &cfg, Faults: jf}
			}
			sweep = append(sweep, spec(nil))
			for k := 0; k < sc.serveSeeds; k++ {
				jf, err := serve.FaultsFromPlan(chaosPlan(uint64(3*(seed-1)+int64(k)+1), cfg.Processors))
				if err != nil {
					return nil, err
				}
				sweep = append(sweep, spec(jf), spec(jf))
			}
		}
	}
	return append(sweep, sweep...), nil
}

// session is one server over a store directory, on loopback.
type session struct {
	srv  *serve.Server
	hs   *http.Server
	done chan struct{}
	cl   *serve.Client
}

// openSession starts a one-worker server over dir and returns it with
// the CPU time serve.NewServer took (the store's recovery scan).
func openSession(dir string, run func(*serve.ResolvedJob) (*core.Result, error)) (*session, time.Duration, error) {
	t := cpuTime()
	srv, err := serve.NewServer(dir, serve.Options{Workers: 1, Run: run})
	d := cpuTime() - t
	if err != nil {
		return nil, 0, fmt.Errorf("start server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, 0, fmt.Errorf("listen: %w", err)
	}
	s := &session{srv: srv, hs: &http.Server{Handler: srv.Handler()}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		if err := s.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	s.cl = &serve.Client{
		Base: "http://" + ln.Addr().String(),
		HTTP: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}, Timeout: time.Minute},
	}
	return s, d, nil
}

// close stops the HTTP side, then drains the worker pool.
func (s *session) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: shutdown:", err)
	}
	<-s.done
	s.cl.HTTP.CloseIdleConnections()
	s.srv.Drain()
}

// sample is one completed request.
type sample struct {
	i          int
	start, end time.Time
	lat, art   time.Duration
	cached     bool
	events     uint64
	key, fp    string
}

// do submits one request, waits for its result and fetches and verifies
// its artifact.
func (s *session) do(spec *serve.JobSpec) (sample, error) {
	t := time.Now()
	st, err := s.cl.Submit(spec, true)
	if err != nil {
		return sample{}, fmt.Errorf("submit %s/%s: %w", spec.App, spec.Protocol, err)
	}
	if st.State != serve.StateDone || st.Result == nil {
		return sample{}, fmt.Errorf("job %s rests in state %s: %s", st.Key, st.State, st.Error)
	}
	ta := time.Now()
	if _, err := s.cl.Artifact(st.Result.MetricsSHA256); err != nil {
		return sample{}, fmt.Errorf("job %s: %w", st.Key, err)
	}
	end := time.Now()
	return sample{start: t, end: end, lat: end.Sub(t), art: end.Sub(ta), cached: st.Cached, events: st.Result.Events, key: st.Key, fp: st.Result.Fingerprint}, nil
}

// loop sends reqs through the closed loop and returns the completed
// requests in request order (nil where a request failed), numbered from
// 0.
func (s *session) loop(rep *report, reqs []*serve.JobSpec) []*sample {
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	out := make([]*sample, len(reqs))
	errs := make([]error, len(reqs))
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(reqs) {
					return
				}
				smp, err := s.do(reqs[i])
				smp.i = i
				if err != nil {
					errs[i] = err
				} else {
					out[i] = &smp
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		rep.op(err)
	}
	return out
}

// checkPass checks a pass's replies against each other and against the
// server's own counters. Each distinct spec must have been simulated
// exactly once, every reply for it must carry the same fingerprint, and
// every request of the rerun half must be answered from the cache. The
// server's hit, miss and dedupe counts must equal what the clients saw;
// 429s and failed simulation attempts count as failed operations. It
// returns the simulated events of the pass's distinct specs.
func (s *session) checkPass(rep *report, samples []*sample) (events uint64, st *serve.Stats) {
	fp := map[string]string{}
	var cached int
	for _, smp := range samples {
		if smp == nil {
			continue
		}
		if smp.cached {
			cached++
		} else if smp.i >= len(samples)/2 {
			rep.fail(fmt.Errorf("request %d of the rerun (job %s) was not answered from the cache", smp.i, smp.key))
		}
		if want, ok := fp[smp.key]; !ok {
			fp[smp.key] = smp.fp
			events += smp.events
		} else if want != smp.fp {
			rep.fail(fmt.Errorf("job %s answered with fingerprint %s, earlier %s", smp.key, smp.fp, want))
		}
	}
	st, err := s.cl.Stats()
	if err != nil {
		rep.op(fmt.Errorf("statsz: %w", err))
		return events, nil
	}
	for i := uint64(0); i < st.RejectedBusy; i++ {
		rep.fail(fmt.Errorf("server answered 429 busy"))
	}
	for i := uint64(0); i < st.FailedRuns; i++ {
		rep.fail(fmt.Errorf("a simulation attempt failed on the server"))
	}
	if st.CacheMisses != uint64(len(fp)) || st.CacheHits != uint64(cached) || st.CacheMisses+st.CacheHits+st.Deduped != uint64(len(samples)) {
		rep.fail(fmt.Errorf("server counted %d misses, %d hits and %d deduped of %d requests; clients saw %d distinct specs and %d cached replies",
			st.CacheMisses, st.CacheHits, st.Deduped, len(samples), len(fp), cached))
	}
	return events, st
}

// segLen is how many requests the closed loop sends between two runs of
// the reference kernel: a pass of 168 goes in 8 segments. The kernel
// follows the host's speed only over a fraction of a second, so a pass,
// which lasts seconds, is scaled piece by piece.
const segLen = 21

// pass is one pass's outcome: the store directory, which the caller
// removes, the replies in request order (nil where a request failed),
// the simulated events of its distinct specs, the server's counters,
// its CPU time at the reference speed and the kernel's own CPU times.
type pass struct {
	dir     string
	samples []*sample
	events  uint64
	st      *serve.Stats
	cpu     float64
	refs    []float64
}

// runPass starts a one-worker server over a fresh store directory,
// sends it one pass and checks the replies. The loop pauses before the
// server starts and after every segLen requests to run the reference
// kernel; the CPU time of each stretch up to the next pause is scaled
// by the kernel run just before it.
func runPass(rep *report, reqs []*serve.JobSpec, run func(*serve.ResolvedJob) (*core.Result, error)) pass {
	var p pass
	var err error
	p.dir, err = os.MkdirTemp("", "perfbench-serve-")
	if err != nil {
		rep.op(err)
		return p
	}
	var ref, c time.Duration
	stretch := func() {
		if ref > 0 {
			p.cpu += scaled(cpuTime()-c, ref)
		}
		ref = refKernel()
		p.refs = append(p.refs, ref.Seconds())
		c = cpuTime()
	}
	stretch()
	s, _, err := openSession(p.dir, run)
	rep.op(err)
	if err != nil {
		return p
	}
	for a := 0; a < len(reqs); a += segLen {
		if a > 0 {
			stretch()
		}
		seg := s.loop(rep, reqs[a:min(a+segLen, len(reqs))])
		for _, smp := range seg {
			if smp != nil {
				smp.i += a
			}
		}
		p.samples = append(p.samples, seg...)
	}
	p.events, p.st = s.checkPass(rep, p.samples)
	s.close()
	p.cpu += scaled(cpuTime()-c, ref)
	return p
}

// serveMixName is the serve-mix workload's name.
const serveMixName = "serve-mix"

// serveUntraced is the end-to-end serve-mix run, spread over fresh
// measuring processes (see runChildren).
func serveUntraced(rep *report, seed int64, d time.Duration, sc scale) {
	reqs, err := sweepPass(seed, sc)
	if err != nil {
		rep.op(err)
		return
	}
	agg := runChildren(rep, childJob{Workload: serveMixName, Seed: seed, Tiny: sc.tiny}, d, sc, len(reqs))
	agg.set(rep)
	fmt.Printf("serve-mix: %d requests a pass; %d passes, scaled CPU %s s, wall %s s; restart over the store of a pass, scaled CPU %s s; reference kernel median %.2f ms\n",
		len(reqs), len(agg.passes), fmtList(agg.passes), fmtList(agg.wallPasses), fmtList(agg.setups), 1000*median(agg.refs))
}

// measureServe is a serve-mix measuring process: passes, each on a
// fresh store, until job.Measure has elapsed (at least one), then
// sc.restarts timed restarts of a server over the last pass's store
// (the set-up samples). Every pass must repeat the first one's
// fingerprints request by request. A restart's CPU time is scaled by
// the reference kernel run just before it, as a paper16 cell's is, and
// a pass's piece by piece (see runPass).
func measureServe(job childJob, sc scale, rep *report) *childResult {
	reqs, err := sweepPass(job.Seed, sc)
	if err != nil {
		rep.op(err)
		return &childResult{}
	}
	cr := &childResult{Outcomes: make([]string, len(reqs))}
	var last string
	defer func() { os.RemoveAll(last) }()
	start := time.Now()
	for len(cr.Passes) == 0 || time.Since(start) < job.Measure {
		pw := time.Now()
		p := runPass(rep, reqs, nil)
		cr.Passes = append(cr.Passes, p.cpu)
		cr.CPUS += p.cpu
		cr.Refs = append(cr.Refs, p.refs...)
		cr.WallPasses = append(cr.WallPasses, time.Since(pw).Seconds())
		cr.Events += float64(p.events)
		os.RemoveAll(last)
		last = p.dir
		for i, smp := range p.samples {
			switch {
			case smp == nil:
			case cr.Outcomes[i] == "":
				cr.Outcomes[i] = smp.fp
			case cr.Outcomes[i] != smp.fp:
				rep.fail(fmt.Errorf("request %d (job %s) gave fingerprint %s, %s in an earlier pass", i, smp.key, smp.fp, cr.Outcomes[i]))
			}
		}
		if p.samples == nil {
			break
		}
	}
	cr.ElapsedS = time.Since(start).Seconds()
	for i := 0; i < sc.restarts && last != ""; i++ {
		// A restarted dsmserve starts from an empty heap; so does each
		// timed restart here, instead of inheriting the passes' garbage.
		runtime.GC()
		ref := refKernel()
		cr.Refs = append(cr.Refs, ref.Seconds())
		s, took, err := openSession(last, nil)
		rep.op(err)
		if err != nil {
			break
		}
		cr.Setups = append(cr.Setups, scaled(took, ref))
		s.close()
	}
	return cr
}

// serveTraced is the per-layer serve-mix run, plus the layer probes.
func serveTraced(rep *report, seed int64, sc scale) {
	lt, overhead := serveLayers(rep, seed, sc)
	lt.set(rep)
	rep.set("bench.trace_overhead_pct", overhead)
	runProbes(rep, sc)
}

// serveLayers runs one pass twice, each on a fresh store: untraced,
// then with the server's simulations run through the timing shim (an
// Options.Run wrapper). The two runs submit the same specs, so their
// fingerprints must agree. It sets the serve.* metrics from the traced
// run and returns that run's layer split and the tracing overhead in
// percent of the untraced pass's wall time.
func serveLayers(rep *report, seed int64, sc scale) (*layerTimes, float64) {
	reqs, err := sweepPass(seed, sc)
	if err != nil {
		rep.op(err)
		return &layerTimes{}, math.NaN()
	}
	var lt layerTimes
	runs := map[string]time.Duration{}
	var mu sync.Mutex
	traced := func(job *serve.ResolvedJob) (*core.Result, error) {
		app, err := job.AppInstance()
		if err != nil {
			return nil, err
		}
		res, one, err := tracedRun(func(a dsm.App) (*core.Result, error) { return core.Run(job.Cfg, job.Spec, a) }, app)
		mu.Lock()
		defer mu.Unlock()
		runs[job.Key] = one.run
		if err == nil {
			lt.merge(one)
		}
		return res, err
	}
	timedPass := func(run func(*serve.ResolvedJob) (*core.Result, error)) ([]*sample, *serve.Stats, time.Duration) {
		t := time.Now()
		p := runPass(rep, reqs, run)
		d := time.Since(t)
		os.RemoveAll(p.dir)
		return p.samples, p.st, d
	}
	plain, _, plainWall := timedPass(nil)
	samples, st, tracedWall := timedPass(traced)
	if st == nil {
		return &lt, math.NaN()
	}
	// A spec's miss is its earliest-sent reply not answered from the
	// cache: the request that ran it. Later uncached replies waited on
	// that run (deduped).
	miss := map[string]*sample{}
	var hitMS, missMS, artMS, runMS, overMS []float64
	var hitTime, allTime time.Duration
	for i, smp := range samples {
		if smp == nil {
			continue
		}
		if i < len(plain) && plain[i] != nil && plain[i].fp != smp.fp {
			rep.fail(fmt.Errorf("job %s: traced fingerprint %s, untraced %s", smp.key, smp.fp, plain[i].fp))
		}
		artMS = append(artMS, ms(smp.art))
		allTime += smp.lat
		if smp.cached {
			hitMS = append(hitMS, ms(smp.lat))
			hitTime += smp.lat
		} else if m := miss[smp.key]; m == nil || smp.start.Before(m.start) {
			miss[smp.key] = smp
		}
	}
	for key, smp := range miss {
		missMS = append(missMS, ms(smp.lat))
		runMS = append(runMS, ms(runs[key]))
		overMS = append(overMS, ms(smp.lat-runs[key]))
	}
	rep.set("serve.hit_p50_ms", quantile(hitMS, 0.5))
	rep.set("serve.hit_p90_ms", quantile(hitMS, 0.9))
	rep.set("serve.hit_p99_ms", quantile(hitMS, 0.99))
	rep.set("serve.miss_p50_ms", quantile(missMS, 0.5))
	rep.set("serve.miss_p90_ms", quantile(missMS, 0.9))
	rep.set("serve.artifact_p50_ms", quantile(artMS, 0.5))
	rep.set("serve.run_p50_ms", quantile(runMS, 0.5))
	rep.set("serve.overhead_p50_ms", quantile(overMS, 0.5))
	rep.set("serve.hits", float64(len(hitMS)))
	rep.set("serve.misses", float64(len(missMS)))
	rep.set("serve.hit_time_pct", 100*hitTime.Seconds()/allTime.Seconds())
	rep.set("serve.hit_ratio", float64(st.CacheHits)/float64(st.CacheHits+st.CacheMisses))
	rep.set("serve.deduped", float64(st.Deduped))
	rep.set("serve.rejected_busy", float64(st.RejectedBusy))
	rep.set("serve.failed", float64(st.FailedRuns))
	fmt.Printf("serve traced: %d requests; %d hits (p50 %.2f ms, p90 %.2f, p99 %.2f; %.1f%% of request time), %d misses (p50 %.2f ms = run %.2f + overhead %.2f), %d deduped; pass %.3f s untraced, %.3f s traced\n",
		len(reqs), len(hitMS), quantile(hitMS, 0.5), quantile(hitMS, 0.9), quantile(hitMS, 0.99), 100*hitTime.Seconds()/allTime.Seconds(),
		len(missMS), quantile(missMS, 0.5), quantile(runMS, 0.5), quantile(overMS, 0.5), st.Deduped, plainWall.Seconds(), tracedWall.Seconds())
	return &lt, 100 * (tracedWall.Seconds()/plainWall.Seconds() - 1)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
