package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hetero/internal/api"
)

// refServer evaluates directly: no response caches, no spill, no peers.
// Every reference digest comes from it.
func refServer() *api.Server { return api.NewServerCacheSize(0) }

func refMeasure(ref *api.Server, query string) (digest, error) {
	status, body := ref.MeasureQuery(query)
	if status != 200 {
		return 0, fmt.Errorf("reference /v1/measure answered %d", status)
	}
	return digestOf(body), nil
}

func refBatch(ref *api.Server, body []byte) (digest, error) {
	var d digestWriter
	status, msg, err := ref.BatchBodyStream(context.Background(), &d, body)
	if status != 200 || err != nil {
		return 0, fmt.Errorf("reference /v1/batch answered %d %s (%v)", status, msg, err)
	}
	return d.sum(), nil
}

// listSource replays a fixed list of requests once (the warm-up passes).
type listSource struct {
	reqs [][]byte
	refs []digest
}

func (s *listSource) op(i int, _ *[]byte) opSpec {
	return opSpec{req: s.reqs[i], ref: s.refs[i], known: true}
}
func (s *listSource) reference(int) (digest, error) { panic("listSource refs are known") }
func (s *listSource) classes() []string             { return []string{"warmup"} }

// ---- measure_hot ----

// hotSource is measure_hot: GET /v1/measure over a fixed working set of
// hotProfiles profiles, each in its plain spelling and in a respelled one
// (exponent form), drawn with Zipf popularity. One request in four uses the
// respelling, so canonicalization runs on hits too.
type hotSource struct {
	reqs [][]byte // item 2p is profile p plain, 2p+1 respelled
	refs []digest
	seq  []int32
}

func newHotSource(sz sizes, seed int64, ref *api.Server) (*hotSource, *listSource, error) {
	r := rand.New(rand.NewSource(seed))
	s := &hotSource{}
	for _, n := range stratifiedLogSizes(r, sz.hotProfiles, sz.hotMinN, sz.hotMaxN) {
		toks := profileTokens(r, n)
		re := make([]string, n)
		for i, t := range toks {
			re[i] = respell(t)
		}
		for _, q := range []string{measureQuery(toks), measureQuery(re)} {
			d, err := refMeasure(ref, q)
			if err != nil {
				return nil, nil, err
			}
			s.reqs = append(s.reqs, getRequest(q))
			s.refs = append(s.refs, d)
		}
	}
	if s.refs[0] != s.refs[1] {
		return nil, nil, fmt.Errorf("respelled query answered differently from the plain one")
	}
	profiles := zipfSequence(r, sz.hotProfiles, sz.hotSeqLen)
	s.seq = make([]int32, len(profiles))
	for i, p := range profiles {
		s.seq[i] = 2 * p
		if r.Intn(4) == 0 {
			s.seq[i]++
		}
	}
	return s, &listSource{reqs: s.reqs, refs: s.refs}, nil
}

func (s *hotSource) op(i int, _ *[]byte) opSpec {
	it := s.seq[i%len(s.seq)]
	return opSpec{req: s.reqs[it], class: int(it & 1), ref: s.refs[it], known: true}
}
func (s *hotSource) reference(int) (digest, error) { panic("hotSource refs are known") }
func (s *hotSource) classes() []string             { return []string{"plain", "respelled"} }

// ---- measure_miss ----

// missFreshEvery makes every missFreshEvery-th measure_miss request a fresh
// profile: a fresh share of 1/48. Each fresh profile adds about 120 KB of
// spill to the warm-up pool's 100 MB, so the share bounds a run's spill
// growth: a 15 s timed phase stays under the default 1 GiB -spill-bytes, past
// which segments retire, up to about 25k ops/s, twice the fastest measured.
const missFreshEvery = 48

// missSource is measure_miss: GET /v1/measure where no request can hit
// memory. All but one request in missFreshEvery revisit the pool, in a fixed
// cycle, after the warm-up wrote every pool profile through to spill; a full
// cycle of other inserts lies between two visits of one profile, far more
// than the memory budget holds, so each revisit is a spill point read. The
// last request of each missFreshEvery is a first-seen profile: a base profile
// whose first ρ-value is replaced by one unique to that request, so it is
// evaluated and written through.
type missSource struct {
	pool     [][]byte
	poolRefs []digest
	bases    []string // ",ρ2,...,ρn" of each base profile
	ref      *api.Server
}

func newMissSource(sz sizes, seed int64, ref *api.Server) (*missSource, *listSource, error) {
	r := rand.New(rand.NewSource(seed))
	s := &missSource{ref: ref}
	for _, n := range shuffledLogSizes(r, sz.missPool, sz.missMinN, sz.missMaxN) {
		q := measureQuery(profileTokens(r, n))
		d, err := refMeasure(ref, q)
		if err != nil {
			return nil, nil, err
		}
		s.pool = append(s.pool, getRequest(q))
		s.poolRefs = append(s.poolRefs, d)
	}
	for _, n := range stratifiedLogSizes(r, sz.missBases, sz.missMinN, sz.missMaxN) {
		s.bases = append(s.bases, ","+strings.Join(profileTokens(r, n-1), ","))
	}
	return s, &listSource{reqs: s.pool, refs: s.poolRefs}, nil
}

// freshToken is the first ρ-value of fresh request j: distinct for every j
// below 999000.
func freshToken(j int) string {
	return strconv.FormatFloat(float64(1000+j%999000)/1e6, 'f', -1, 64)
}

func (s *missSource) op(i int, scratch *[]byte) opSpec {
	b, pos := i/missFreshEvery, i%missFreshEvery
	if pos < missFreshEvery-1 {
		k := (b*(missFreshEvery-1) + pos) % len(s.pool)
		return opSpec{req: s.pool[k], class: 0, ref: s.poolRefs[k], known: true}
	}
	*scratch = appendGetRequest((*scratch)[:0], "profile=", freshToken(b), s.bases[b%len(s.bases)])
	return opSpec{req: *scratch, class: 1}
}

func (s *missSource) reference(i int) (digest, error) {
	b := i / missFreshEvery
	return refMeasure(s.ref, "profile="+freshToken(b)+s.bases[b%len(s.bases)])
}

func (s *missSource) classes() []string { return []string{"revisit", "fresh"} }

// ---- batch_sweep ----

// batchSource is batch_sweep: POST /v1/batch with bodies above the stream
// threshold. Each pass sweeps the fixed bodies twice, in order, then sends
// one fresh body. The warm-up sweep tees every sweep body's streamed response into
// spill, so later sweeps are spill stream reads. A fresh body is a sweep
// body with the first ρ-value of every profile replaced by one unique to it
// (same width, patched in place), so it is decoded, evaluated, streamed and
// teed like a new request.
type batchSource struct {
	reqs   [][]byte // full wire requests of the sweep bodies
	refs   []digest
	hdrLen []int   // header bytes before each body
	firsts [][]int // offset in reqs[b] of each profile's first token
	ref    *api.Server
}

// freshDigits are the last digits of fresh first tokens; sweep bodies end
// theirs in 5, so no fresh body can equal a sweep body.
const freshDigits = "12346789"

func newBatchSource(sz sizes, seed int64, ref *api.Server) (*batchSource, *listSource, error) {
	r := rand.New(rand.NewSource(seed))
	s := &batchSource{ref: ref}
	for _, k := range sz.batchKs {
		n := sz.batchUnits / k
		var body []byte
		var firsts []int
		body = append(body, `{"profiles":[`...)
		for p := 0; p < k; p++ {
			if p > 0 {
				body = append(body, ',')
			}
			body = append(body, '[')
			firsts = append(firsts, len(body))
			body = append(body, "0."...)
			body = strconv.AppendInt(body, int64(10+r.Intn(90)), 10)
			body = append(body, '5')
			for j := 1; j < n; j++ {
				body = append(body, ',')
				body = strconv.AppendFloat(body, float64(1+r.Intn(1000))/1000, 'f', -1, 64)
			}
			body = append(body, ']')
		}
		body = append(body, "]}"...)
		d, err := refBatch(ref, body)
		if err != nil {
			return nil, nil, err
		}
		hdr := postHeader(len(body))
		for i := range firsts {
			firsts[i] += len(hdr)
		}
		s.reqs = append(s.reqs, append([]byte(hdr), body...))
		s.refs = append(s.refs, d)
		s.hdrLen = append(s.hdrLen, len(hdr))
		s.firsts = append(s.firsts, firsts)
	}
	return s, &listSource{reqs: s.reqs, refs: s.refs}, nil
}

// freshBody writes fresh body j into *scratch and returns the whole request.
func (s *batchSource) freshRequest(j int, scratch *[]byte) []byte {
	b := j % len(s.reqs)
	c := j / len(s.reqs) // fresh bodies derived from sweep body b so far
	*scratch = append((*scratch)[:0], s.reqs[b]...)
	req := *scratch
	for p, off := range s.firsts[b] {
		t := (c + 37*p) % (90 * len(freshDigits))
		req[off+2] = byte('1' + t/len(freshDigits)/10)
		req[off+3] = byte('0' + t/len(freshDigits)%10)
		req[off+4] = freshDigits[t%len(freshDigits)]
	}
	return req
}

// batchSweepsPerFresh is the number of sweeps between two fresh bodies.
const batchSweepsPerFresh = 2

func (s *batchSource) op(i int, scratch *[]byte) opSpec {
	blk := batchSweepsPerFresh*len(s.reqs) + 1
	b, pos := i/blk, i%blk
	if pos < blk-1 {
		k := pos % len(s.reqs)
		return opSpec{req: s.reqs[k], class: 0, ref: s.refs[k], known: true}
	}
	return opSpec{req: s.freshRequest(b, scratch), class: 1}
}

func (s *batchSource) reference(i int) (digest, error) {
	j := i / (batchSweepsPerFresh*len(s.reqs) + 1)
	var scratch []byte
	req := s.freshRequest(j, &scratch)
	return refBatch(s.ref, req[s.hdrLen[j%len(s.reqs)]:])
}

func (s *batchSource) classes() []string { return []string{"repeat", "fresh"} }

// ---- the serving run ----

// passLen is the number of ops in one pass of each serving workload.
func passLen(cfg config, src source) int {
	switch s := src.(type) {
	case *hotSource:
		return cfg.size.hotPass
	case *missSource:
		return len(s.pool) * missFreshEvery / (missFreshEvery - 1)
	case *batchSource:
		return batchSweepsPerFresh*len(s.reqs) + 1
	}
	return 1
}

// connections is the number of closed-loop connections a serving workload
// uses: nproc, at most 2, except batch_sweep's one. Its ops take tens to
// hundreds of milliseconds, and a second connection would overlap fresh
// bodies with spill reads in an order that changes from run to run.
func connections(workload string, procs int) int {
	if workload == "batch_sweep" {
		return 1
	}
	return procs
}

func newServingSource(cfg config, ref *api.Server) (source, *listSource, error) {
	switch cfg.workload {
	case "measure_hot":
		return newHotSource(cfg.size, cfg.seed, ref)
	case "measure_miss":
		return newMissSource(cfg.size, cfg.seed, ref)
	case "batch_sweep":
		return newBatchSource(cfg.size, cfg.seed, ref)
	}
	return nil, nil, fmt.Errorf("%s is not a serving workload", cfg.workload)
}

// servingRun is what runServing observed, for the metrics and the tests.
type servingRun struct {
	timed            phase
	before, after    statz
	setups           []float64
	peakRSSMB        float64
	genCPU, hetCPU   float64
	steal            uint64  // host steal ticks over the timed phase
	stealShare       float64 // share of host CPU time stolen over it
	sampler          *stealSampler
	setupSteal       []float64 // steal share during each set-up
	spillFS          string
	attempted        int64
	failed, mismatch int64
	classCounts      map[string]int
	firstErr         string
}

// serve runs the set-ups and the timed phase of a serving workload.
func serve(cfg config, procs int) (*servingRun, source, error) {
	src, warm, err := newServingSource(cfg, refServer())
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	out := &servingRun{}
	args := func(dir string) []string { return heterodArgs(cfg.size, dir) }
	conns := connections(cfg.workload, procs)
	var p *heterodProc
	for k := 0; k < cfg.size.setups; k++ {
		dir, err := newSpillDir(cfg, cfg.workload)
		if err != nil {
			return nil, nil, err
		}
		out.spillFS = fsName(dir)
		c0 := readCPUTicks()
		p, err = startHeterod(cfg.heterod, args(dir), dir, procs)
		if err != nil {
			return nil, nil, err
		}
		wph := runClosedLoop(p.addr, conns, warm, len(warm.reqs), 0)
		setup := time.Since(p.started).Seconds()
		out.setupSteal = append(out.setupSteal, stealShare(c0, readCPUTicks()))
		f, mm, err := verify(&wph, warm)
		if err == nil {
			err = p.waitSpillIdle(30 * time.Second)
		}
		if err != nil {
			p.stop()
			return nil, nil, err
		}
		out.setups = append(out.setups, setup)
		out.attempted += int64(len(wph.records))
		out.failed += f
		out.mismatch += mm
		if k < cfg.size.setups-1 {
			p.stop()
		}
	}
	defer p.stop()
	runtime.GC()
	pid := p.cmd.Process.Pid
	if out.before, err = p.statz(); err != nil {
		return nil, nil, err
	}
	het0, _ := procCPUSeconds(pid)
	gen0, c0 := selfCPUSeconds(), readCPUTicks()
	out.sampler = startStealSampler(time.Now())
	out.timed = runClosedLoop(p.addr, conns, src, 0, cfg.duration())
	out.sampler.finish()
	c1 := readCPUTicks()
	out.genCPU, out.steal, out.stealShare = selfCPUSeconds()-gen0, c1.steal-c0.steal, stealShare(c0, c1)
	het1, _ := procCPUSeconds(pid)
	out.hetCPU = het1 - het0
	if out.after, err = p.statz(); err != nil {
		return nil, nil, err
	}
	if out.peakRSSMB, err = peakRSSMB(pid); err != nil {
		return nil, nil, err
	}
	f, mm, err := verify(&out.timed, src)
	if err != nil {
		return nil, nil, err
	}
	out.attempted += int64(len(out.timed.records))
	out.failed += f
	out.mismatch += mm
	// Server-side failures count too: a corrupt spill read that fell back
	// to evaluation, a shed request, a deadline or a recovered panic.
	out.failed += int64(delta(out.after.Spill.Corrupt, out.before.Spill.Corrupt) +
		delta(out.after.Serving.Shed, out.before.Serving.Shed) +
		delta(out.after.Serving.DeadlineExceeded, out.before.Serving.DeadlineExceeded) +
		delta(out.after.Serving.Panics, out.before.Serving.Panics))
	out.firstErr = out.timed.firstErr
	out.classCounts = map[string]int{}
	names := src.classes()
	for _, r := range out.timed.records {
		out.classCounts[names[r.class]]++
	}
	return out, src, nil
}

func delta(after, before uint64) uint64 {
	if after < before {
		return 0
	}
	return after - before
}

// runServing runs a serving workload and turns what it observed into
// metrics.
func runServing(cfg config, procs int) (*runReport, error) {
	sr, src, err := serve(cfg, procs)
	if err != nil {
		return nil, err
	}
	ph := sr.timed
	spans := passSpans(ph.records, passLen(cfg, src), ph.elapsed)
	off := ph.t0.Sub(sr.sampler.t0)
	shares := make([]float64, len(spans))
	for k, p := range spans {
		shares[k] = sr.sampler.share(p.start+off, p.end+off)
	}
	quiet, quietSetups := quietest(shares), quietest(sr.setupSteal)
	tm := passTimeMetrics(pick(spans, quiet))
	if tm.latencySamples == 0 {
		return nil, fmt.Errorf("no request of the timed phase succeeded")
	}
	rep := &runReport{
		attempted:  sr.attempted,
		failed:     sr.failed,
		mismatches: sr.mismatch,
		e2e: map[string]metric{
			"setup_s":          {median(pick(sr.setups, quietSetups)), "s"},
			"throughput_ops_s": {tm.opsPerS, "1/s"},
			"p50_ms":           {tm.p50, "ms"},
			"p99_ms":           {tm.p99, "ms"},
			"pass_s":           {tm.passS, "s"},
			"peak_rss_mb":      {sr.peakRSSMB, "MB"},
		},
		layer: statzLayerMetrics(sr.before, sr.after, len(ph.records)),
	}
	genShare := 0.0
	if tot := sr.genCPU + sr.hetCPU; tot > 0 {
		genShare = sr.genCPU / tot
	}
	rep.layer["bench.gen_cpu_share"] = metric{genShare, "ratio"}
	rep.layer["host.steal_ticks"] = metric{float64(sr.steal), "count"}
	rep.meta = runMeta(procs, sr.after.Build.VCSRevision)
	rep.meta["spill_fs"] = sr.spillFS
	rep.meta["heterod_args"] = heterodArgs(cfg.size, "<dir>")
	rep.meta["heterod_gomaxprocs"] = procs
	rep.meta["connections"] = connections(cfg.workload, procs)
	rep.meta["timed_ops"] = len(ph.records)
	rep.meta["timed_wall_s"] = ph.elapsed.Seconds()
	rep.meta["latency_samples"] = tm.latencySamples
	rep.meta["passes"], rep.meta["quiet_passes"] = len(spans), len(quiet)
	rep.meta["unfiltered"] = unfilteredMeta(passTimeMetrics(spans), sr.setups)
	rep.meta["steal_share"] = sr.stealShare
	rep.meta["setup_steal_share"], rep.meta["quiet_setups"] = sr.setupSteal, len(quietSetups)
	rep.meta["ops_by_class"] = sr.classCounts
	rep.meta["setup_s_all"] = sr.setups
	rep.meta["gen_cpu_share"] = genShare
	rep.meta["steal_ticks"] = sr.steal
	rep.meta["spill_disk_bytes"], rep.meta["spill_retired_segments"] = sr.after.Spill.Bytes, sr.after.Spill.RetiredSegments
	if sr.firstErr != "" {
		rep.meta["first_transport_error"] = sr.firstErr
	}
	return rep, nil
}

// statzLayerMetrics turns the /v1/statz deltas over the timed phase into
// the per-layer counts. A ratio whose denominator is 0 reads 0.
func statzLayerMetrics(b, a statz, ops int) map[string]metric {
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	perOp := func(v uint64) float64 { return ratio(v, uint64(ops)) }
	mc, bmc := a.MeasureCache, b.MeasureCache
	hits := delta(mc.Hits, bmc.Hits) + delta(mc.Coalesced, bmc.Coalesced)
	lookups := hits + delta(mc.Misses, bmc.Misses)
	sp, bsp := a.Spill, b.Spill
	spillReads := delta(sp.Hits, bsp.Hits) + delta(sp.Misses, bsp.Misses)
	writes, dropped := delta(sp.Writes, bsp.Writes), delta(sp.DroppedWrites, bsp.DroppedWrites)
	return map[string]metric{
		"api.cache.hit_rate":       {ratio(hits, lookups), "ratio"},
		"api.cache.raw_hit_share":  {ratio(delta(mc.RawHits, bmc.RawHits), delta(mc.Hits, bmc.Hits)), "ratio"},
		"api.cache.evicted_per_op": {perOp(delta(mc.Evicted, bmc.Evicted)), "1/op"},
		"api.cache.shard_resizes":  {float64(delta(mc.ShardResizes, bmc.ShardResizes) + delta(mc.RawShardResizes, bmc.RawShardResizes) + delta(a.Batch.RawShardResizes, b.Batch.RawShardResizes)), "count"},
		"api.evals_per_op":         {perOp(delta(a.Cluster.LocalEvals, b.Cluster.LocalEvals)), "1/op"},
		"api.shed":                 {float64(delta(a.Serving.Shed, b.Serving.Shed)), "count"},
		"api.deadlines":            {float64(delta(a.Serving.DeadlineExceeded, b.Serving.DeadlineExceeded)), "count"},
		"api.panics":               {float64(delta(a.Serving.Panics, b.Serving.Panics)), "count"},
		"api.batch.streamed_share": {ratio(delta(a.Batch.Streamed, b.Batch.Streamed), delta(a.Batch.Requests, b.Batch.Requests)), "ratio"},
		"spill.hit_rate":           {ratio(delta(sp.Hits, bsp.Hits), spillReads), "ratio"},
		"spill.writes_per_op":      {perOp(writes), "1/op"},
		"spill.dropped_write_frac": {ratio(dropped, writes+dropped), "ratio"},
		"spill.failed_writes":      {float64(delta(sp.FailedWrites, bsp.FailedWrites)), "count"},
		"spill.corrupt":            {float64(delta(sp.Corrupt, bsp.Corrupt)), "count"},
		"spill.compact_deferred":   {float64(delta(sp.CompactDeferred, bsp.CompactDeferred)), "count"},
		"spill.compacted_bytes":    {float64(delta(sp.CompactedBytes, bsp.CompactedBytes)), "bytes"},
		"spill.retired_segments":   {float64(delta(sp.RetiredSegments, bsp.RetiredSegments)), "count"},
		"spill.disk_bytes":         {float64(sp.Bytes), "bytes"},
	}
}
