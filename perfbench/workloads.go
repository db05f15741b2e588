package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/service"
)

const (
	// setupRuns is how many times a run sets up from scratch; setup_s
	// is the median. The workloads whose pre-fill is measured set up
	// more often, since each pre-fill is short.
	setupRuns       = 3
	prefilledSetups = 5
	// queryBatch is the number of filters per /v1/query request.
	queryBatch = 32
	// queryBatches is the size of each workload's filter-batch pool.
	queryBatches = 16
	// finalMinsup is the support threshold of the final, checked mine —
	// the paper's 2%.
	finalMinsup = 0.02
	// fullLimit asks /v1/mine for every frequent itemset.
	fullLimit = 1_000_000
	// timedLimit is the itemset limit of timed mines (the endpoint's
	// default).
	timedLimit = 100
	// walFlush is frapp-server's default -wal-flush interval.
	walFlush = 200 * time.Millisecond
)

// serverDefaults records the frapp-server settings every run relies on.
// None of these flags is passed: the values are the server's defaults.
var serverDefaults = map[string]string{
	"wal-sync":         "always",
	"wal-flush":        walFlush.String(),
	"checkpoint-every": "10000",
	"shards":           "0 (one per core)",
	"mine-workers":     "2",
	"query-limit":      "1024",
}

// latencies sets the metric <prefix>_p50_ms and records the tail,
// <prefix>_p<q>_ms and <prefix>_p99_ms, beside it. Each is the median,
// over consecutive windows of the phase, of the window's percentile
// (see windowed). The tails are printed with their sample counts and
// kept in the results file, but they are not gated metrics: on a
// shared two-core machine they follow the hypervisor's steal time
// (an open-loop submit p90 moved from 1.1 to 4.9 ms between runs of
// the same code) far more than any change to the program.
func latencies(rep *report, prefix string, xs []sample, q float64) {
	p50, w50 := windowed(xs, 0.5)
	rep.set(prefix+"_p50_ms", p50, "ms", len(xs))
	rep.detail[prefix+"_p50_ms_windows"] = w50
	for _, t := range []float64{q, 0.99} {
		name := fmt.Sprintf("%s_p%d_ms", prefix, int(math.Round(t*100)))
		v, w := windowed(xs, t)
		b := beyond(len(xs), t)
		rep.detail[name] = map[string]any{"value": v, "samples": len(xs), "beyond": b, "windows": w}
		fmt.Printf("%-44s %14.4f ms  (n=%d, %d beyond; not gated)\n", name, v, len(xs), b)
	}
}

// quiesce collects the set-up garbage and makes the generator collect
// less often from here on, so its GC competes less with the server for
// the cores while the timed phases run.
func quiesce() {
	runtime.GC()
	debug.SetGCPercent(400)
}

// finish adds what every workload reports at the end: peak RSS, the
// final checked answers, accuracy, and the server flags.
func finish(rep *report, srv *serverProc, client *service.Client, off *offline, tr *truth, pool *queryPool, maxlen int, rss float64) {
	rep.set("server_peak_rss_mb", rss, "MB", 0)
	conn := newConn()
	defer conn.CloseIdleConnections()
	var served []service.QueryEstimate
	for _, body := range pool.bodies {
		var qr service.QueryResponse
		rep.Attempted++
		if err := postQuery(conn, srv.base, body, &qr); err != nil {
			rep.Failed++
			rep.fail("final query: %v", err)
			return
		}
		served = append(served, qr.Estimates...)
	}
	off.checkQueries(rep, pool.filters, served)
	var mine service.MineResponse
	rep.Attempted++
	if err := getMine(conn, srv.base, finalMinsup, maxlen, fullLimit, &mine); err != nil {
		rep.Failed++
		rep.fail("final mine: %v", err)
		return
	}
	off.checkMine(rep, &mine, maxlen)
	acc, err := tr.evaluate(client.Schema(), &mine, maxlen, pool.filters, served)
	if err != nil {
		rep.fail("accuracy: %v", err)
		return
	}
	rep.detail["accuracy"] = acc
	rep.detail["server_args"] = srv.args
	rep.detail["server_defaults"] = serverDefaults
	fmt.Printf("accuracy: rho=%.3f%% sigma+=%.3f%% sigma-=%.3f%% (|F|=%d |R|=%d) ci_coverage=%d/%d=%.4f\n",
		acc.SupportErrPct, acc.IdentityPosPct, acc.IdentityNegPct, acc.TrueItemsets, acc.MinedItemsets, acc.CICovered, acc.CITotal, acc.coverage())
}

// analystStep returns a closed-loop step that sends queriesPerMine
// query batches from pool and then one synchronous mine at the next
// minsup of the sequence.
func analystStep(base string, pool *queryPool, minsups []float64, queriesPerMine, maxlen int) func(worker, iter int, c *http.Client) (string, time.Duration, error) {
	var nextQuery, nextMine atomic.Int64
	return func(worker, iter int, c *http.Client) (string, time.Duration, error) {
		start := time.Now()
		if iter%(queriesPerMine+1) < queriesPerMine {
			body := pool.bodies[int(nextQuery.Add(1)-1)%len(pool.bodies)]
			var qr service.QueryResponse
			err := postQuery(c, base, body, &qr)
			return "query", time.Since(start), err
		}
		i := int(nextMine.Add(1) - 1)
		if i >= len(minsups) {
			return "", 0, nil // sequence exhausted: stop rather than hit the cache
		}
		var mr service.MineResponse
		err := getMine(c, base, minsups[i], maxlen, timedLimit, &mr)
		return "mine", time.Since(start), err
	}
}

// ---------------------------------------------------------------- ingest

// ingest-census constants. Ladder rates are points of a fixed
// geometric grid of 2^(1/16) (4.4%) steps.
const (
	ingestBatch    = 256
	ingestPopSize  = 200_000
	ladderMaxRungs = 16 // attempts, retries included
	// latencyRate (records/s) is the fixed-rate phase's load: ~15% of
	// this box's quiet capacity (~650k), and still below the ~200k it
	// fell to while the hypervisor stole 10–20% of the CPU.
	latencyRate = 100_000.0
	// sloP99Ms is the submit p99 a ladder rung must meet. WAL fsyncs
	// and checkpoints stall ingest for tens of milliseconds every flush
	// at any rate, so the SLO sits above those stalls and the knee is
	// found by queueing: p99 and the backlog grow without bound there.
	sloP99Ms = 100.0
	// keepUp is the share of the offered records a rung must get
	// acknowledged within the rung (no growing backlog).
	keepUp = 0.97
)

func gridRate(k int) float64 { return 1000 * math.Pow(2, float64(k)/16) }

func gridIndex(rate float64) int { return int(math.Round(16 * math.Log2(rate/1000))) }

type rung struct {
	Offered  float64 `json:"offered_rps"`
	Achieved float64 `json:"achieved_rps"`
	P50      float64 `json:"p50_ms"`
	P99      float64 `json:"p99_ms"`
	Backlog  int     `json:"backlog_batches"`
	Failed   int     `json:"failed"`
	Pass     bool    `json:"pass"`
}

type ingestSetup struct {
	srv     *serverProc
	client  *service.Client
	pop     []dataset.Record
	batches []*service.PreparedBatch
}

func setupIngest(cfg *config, try int, batches int) (*ingestSetup, error) {
	state := filepath.Join(cfg.workdir, fmt.Sprintf("state-%d", try))
	db, err := population("census", ingestPopSize)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(cfg, fmt.Sprintf("server-%d.log", try), "-schema", "census", "-scheme", "gamma", "-state", state)
	if err != nil {
		return nil, err
	}
	client, err := newClient(srv.base)
	if err != nil {
		srv.kill()
		return nil, err
	}
	bs, err := prepareBatches(client, db.Records, batches, ingestBatch)
	if err != nil {
		srv.kill()
		return nil, err
	}
	return &ingestSetup{srv: srv, client: client, pop: db.Records, batches: bs}, nil
}

func runIngestCensus(cfg *config, rep *report) error {
	S := cfg.seconds
	rungDur := time.Duration(S / 25 * float64(time.Second))
	latDur := time.Duration(0.35 * S * float64(time.Second))
	readDur := time.Duration(0.15 * S * float64(time.Second))
	// Enough batches for a probe and ladder up to ~1M records/s plus
	// the latency phase; the ladder stops early rather than reuse a
	// perturbation.
	poolRecords := 9_000_000*rungDur.Seconds() + latencyRate*latDur.Seconds()
	nBatches := int(poolRecords/ingestBatch) + 1

	var setups []float64
	var s *ingestSetup
	for try := range setupRuns {
		if s != nil {
			s.srv.kill()
			s = nil
		}
		t0 := time.Now()
		var err error
		if s, err = setupIngest(cfg, try, nBatches); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(setups), "s", len(setups))
	quiesce()
	rep.detail["setup_s_all"] = setups
	srv := s.srv

	conns := []*http.Client{newConn(), newConn()}
	defer closeConns(conns)
	var acked []int // batch indexes acknowledged
	cursor := 0     // next unused batch
	sendFrom := func(base int) func(c *http.Client, op int) error {
		return func(c *http.Client, op int) error { return postBatch(c, srv.base, s.batches[base+op]) }
	}
	phase := func(rate float64, dur time.Duration) openStats {
		st := openLoop(conns, rate/ingestBatch, dur, sendFrom(cursor))
		for _, op := range st.acked {
			acked = append(acked, cursor+op)
		}
		cursor += st.issued
		rep.Attempted += int64(st.issued)
		rep.Failed += int64(st.failed)
		if st.firstErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: submit error:", st.firstErr)
		}
		return st
	}
	var late []float64

	// Capacity ladder.
	var rungs []rung
	capacity := 0.0
	attempt := func(k int, dur time.Duration) (bool, bool) {
		rate := gridRate(k)
		need := int(rate*dur.Seconds()/ingestBatch) + 1
		reserve := int(latencyRate*latDur.Seconds()/ingestBatch) + 1
		if len(rungs) >= ladderMaxRungs || cursor+need+reserve > len(s.batches) {
			fmt.Fprintln(os.Stderr, "perfbench: warning: ladder stopped (attempt limit or batch pool)")
			return false, false
		}
		st := phase(rate, dur)
		late = append(late, st.lateMs...)
		r := rung{
			Offered:  rate,
			Achieved: float64(len(st.acked)*ingestBatch) / dur.Seconds(),
			P50:      median(values(st.lat)),
			P99:      percentile(values(st.lat), 0.99),
			Backlog:  max(0, st.due-st.issued),
			Failed:   st.failed,
		}
		r.Pass = st.failed == 0 && r.P99 <= sloP99Ms && float64(len(st.acked)) >= keepUp*float64(st.due)
		rungs = append(rungs, r)
		if r.Pass && r.Achieved > capacity {
			capacity = r.Achieved
		}
		time.Sleep(walFlush) // let the flusher drain before the next rung
		return r.Pass, true
	}
	// A rung passes if one of two attempts does: one flush stall can
	// fail a short rung far below capacity. ok is false once the ladder
	// ran out of attempts or batches.
	tryRung := func(k int, dur time.Duration) (pass, ok bool) {
		for range 2 {
			if pass, ok = attempt(k, dur); pass || !ok {
				return pass, ok
			}
		}
		return false, true
	}
	// Saturation probe: both connections send back to back. Its
	// throughput X (median over rung-length windows) places the ladder;
	// these records count as ingested but not towards any rung.
	var probeMu sync.Mutex
	var next atomic.Int64
	base := cursor
	probe := closedLoop(conns, 3*rungDur, func(_, _ int, c *http.Client) (string, time.Duration, error) {
		i := base + int(next.Add(1)-1)
		t0 := time.Now()
		err := postBatch(c, srv.base, s.batches[i])
		if err == nil {
			probeMu.Lock()
			acked = append(acked, i)
			probeMu.Unlock()
		}
		return "submit", time.Since(t0), err
	})
	cursor += probe.attempts
	rep.Attempted += int64(probe.attempts)
	rep.Failed += int64(probe.failed)
	if probe.firstErr != nil {
		return fmt.Errorf("saturation probe: %w", probe.firstErr)
	}
	var perWindow []float64
	for w := 0; w < 3; w++ {
		n := 0
		for _, x := range probe.lat["submit"] {
			if x.at >= float64(w)*rungDur.Seconds() && x.at < float64(w+1)*rungDur.Seconds() {
				n++
			}
		}
		perWindow = append(perWindow, float64(n*ingestBatch)/rungDur.Seconds())
	}
	saturation := median(perWindow)
	rep.detail["saturation_rps"] = saturation
	time.Sleep(walFlush)

	// Walk the fixed grid one point (4.4%) at a time from the highest
	// point at or below 85% of X until a rung fails twice. (Open-loop
	// rungs usually pass somewhat above X: the closed loop idles each
	// connection for a round trip per batch.)
	// Should that first rung fail, step down four points at a time.
	k := gridIndex(0.85 * saturation)
	if gridRate(k) > 0.85*saturation {
		k--
	}
	for range 4 {
		if pass, ok := tryRung(k, rungDur); pass || !ok {
			break
		}
		k -= 4
	}
	for capacity > 0 {
		if pass, ok := tryRung(k+1, rungDur); !pass || !ok {
			break
		}
		k++
	}
	if capacity == 0 {
		return fmt.Errorf("no ladder rung met p99 <= %v ms", sloP99Ms)
	}
	rep.set("ingest_capacity_rps", capacity, "1/s", len(rungs))
	rep.detail["ladder"] = rungs
	rep.detail["slo_p99_ms"] = sloP99Ms

	// Fixed-rate latency phase.
	lat := phase(latencyRate, latDur)
	late = append(late, lat.lateMs...)
	latencies(rep, "submit", lat.lat, 0.90)
	rep.detail["latency_phase"] = map[string]any{"offered_rps": latencyRate, "acked_batches": len(lat.acked), "backlog_batches": max(0, lat.due-lat.issued)}
	rep.detail["generator_late_p99_ms"] = percentile(late, 0.99)
	fmt.Printf("generator lateness p99: %.3f ms (n=%d)\n", percentile(late, 0.99), len(late))

	// Durability: wait out two flush intervals, crash, recover.
	time.Sleep(5 * walFlush / 2)
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	srv.kill()
	restart := time.Now()
	srv, err = startServer(cfg, "server-restart.log", srv.args[4:]...)
	if err != nil {
		return err
	}
	defer srv.stop()
	recoverMs := ms(time.Since(restart))
	st, err := getStats(srv.base)
	if err != nil {
		return err
	}
	ackedRecords := len(acked) * ingestBatch
	rep.detail["durability"] = map[string]any{"acknowledged": ackedRecords, "recovered": st.Records, "restart_to_ready_ms": recoverMs}
	fmt.Printf("durability: acknowledged=%d recovered=%d restart-to-ready=%.1f ms\n", ackedRecords, st.Records, recoverMs)
	if st.Records != ackedRecords {
		rep.fail("after kill -9 the server recovered %d records, %d were acknowledged", st.Records, ackedRecords)
	}

	// Read-back of the recovered collection.
	pool, err := newQueryPool(s.client.Schema(), s.pop, queryBatches, queryBatch, cfg.seed)
	if err != nil {
		return err
	}
	minsups := minsupSequence(20_000, cfg.seed)
	rc := []*http.Client{newConn(), newConn()}
	defer closeConns(rc)
	rd := closedLoop(rc, readDur, analystStep(srv.base, pool, minsups, 4, 0))
	rep.Attempted += int64(rd.attempts)
	rep.Failed += int64(rd.failed)
	if rd.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: read-back error:", rd.firstErr)
	}
	latencies(rep, "query", rd.lat["query"], 0.90)
	latencies(rep, "mine", rd.lat["mine"], 0.90)

	// Offline recomputation over every acknowledged batch.
	off, err := newOffline(s.client)
	if err != nil {
		return err
	}
	times := make([]int, len(s.pop))
	for _, b := range acked {
		recs, err := decodeBinaryBatch(s.batches[b].Body())
		if err != nil {
			return err
		}
		if err := off.counter.IngestBatch(recs); err != nil {
			return err
		}
		for i := range ingestBatch {
			times[(b*ingestBatch+i)%len(s.pop)]++
		}
	}
	tr := newTruth(s.client.Schema())
	for i, n := range times {
		if n > 0 {
			if err := tr.add(s.pop[i], n); err != nil {
				return err
			}
		}
	}
	finish(rep, srv, s.client, off, tr, pool, 0, rss)
	return nil
}

// ---------------------------------------------------------------- analyst

const (
	healthRecords = 100_000
	prefillBatch  = 250
)

func runAnalystHealth(cfg *config, rep *report) error {
	var (
		setups, rates []float64
		prefillLat    []sample
		srv           *serverProc
		client        *service.Client
		pop           []dataset.Record
		batches       []*service.PreparedBatch
	)
	for try := range prefilledSetups {
		if srv != nil {
			srv.kill()
		}
		t0 := time.Now()
		db, err := population("health", healthRecords)
		if err != nil {
			return err
		}
		pop = db.Records
		if srv, err = startServer(cfg, fmt.Sprintf("server-%d.log", try), "-schema", "health", "-scheme", "gamma"); err != nil {
			return err
		}
		if client, err = newClient(srv.base); err != nil {
			return err
		}
		if batches, err = prepareBatches(client, pop, healthRecords/prefillBatch, prefillBatch); err != nil {
			return err
		}
		rate, lat, err := prefill(rep, srv.base, batches)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		rates = append(rates, rate)
		prefillLat = append(prefillLat, lat...)
	}
	defer srv.stop()
	rep.set("setup_s", median(setups), "s", len(setups))
	quiesce()
	rep.set("ingest_capacity_rps", median(rates), "1/s", len(rates))
	latencies(rep, "submit", prefillLat, 0.90)
	rep.detail["setup_s_all"] = setups
	rep.detail["prefill_rps_all"] = rates

	pool, err := newQueryPool(client.Schema(), pop, queryBatches, queryBatch, cfg.seed)
	if err != nil {
		return err
	}
	minsups := minsupSequence(20_000, cfg.seed)
	conns := []*http.Client{newConn(), newConn()}
	defer closeConns(conns)
	st := closedLoop(conns, time.Duration(cfg.seconds*float64(time.Second)), analystStep(srv.base, pool, minsups, 4, 0))
	rep.Attempted += int64(st.attempts)
	rep.Failed += int64(st.failed)
	if st.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: analyst error:", st.firstErr)
	}
	latencies(rep, "query", st.lat["query"], 0.90)
	latencies(rep, "mine", st.lat["mine"], 0.90)

	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	off, err := newOffline(client)
	if err != nil {
		return err
	}
	for _, b := range batches {
		recs, err := decodeBinaryBatch(b.Body())
		if err != nil {
			return err
		}
		if err := off.counter.IngestBatch(recs); err != nil {
			return err
		}
	}
	tr := newTruth(client.Schema())
	for _, r := range pop {
		if err := tr.add(r, 1); err != nil {
			return err
		}
	}
	finish(rep, srv, client, off, tr, pool, 0, rss)
	return nil
}

// prefill submits every batch closed-loop over two connections and
// returns the achieved records/s and the per-batch latencies.
func prefill(rep *report, base string, batches []*service.PreparedBatch) (float64, []sample, error) {
	var next atomic.Int64
	conns := []*http.Client{newConn(), newConn()}
	defer closeConns(conns)
	records := 0
	for _, b := range batches {
		records += b.Len()
	}
	st := closedLoop(conns, time.Hour, func(_, _ int, c *http.Client) (string, time.Duration, error) {
		i := int(next.Add(1) - 1)
		if i >= len(batches) {
			return "", 0, nil
		}
		t0 := time.Now()
		err := postBatch(c, base, batches[i])
		return "submit", time.Since(t0), err
	})
	rep.Attempted += int64(st.attempts)
	rep.Failed += int64(st.failed)
	if st.firstErr != nil {
		return 0, nil, fmt.Errorf("pre-fill: %w", st.firstErr)
	}
	return float64(records) / st.elapsed.Seconds(), st.lat["submit"], nil
}

// ---------------------------------------------------------------- mixed

const (
	mixedPrefill    = 5_000
	mixedWriteRate  = 150.0 // single-record submits/s
	mixedQueryRatio = 10    // query batches per maxlen=2 mine
	mixedMaxLen     = 2
)

func runMixedMask(cfg *config, rep *report) error {
	dur := time.Duration(cfg.seconds * float64(time.Second))
	writes := int(mixedWriteRate*cfg.seconds) + 1
	var (
		setups, rates []float64
		srv           *serverProc
		client        *service.Client
		pop           []dataset.Record
		singles       [][]byte
	)
	for try := range prefilledSetups {
		if srv != nil {
			srv.kill()
		}
		t0 := time.Now()
		db, err := population("census", mixedPrefill+writes)
		if err != nil {
			return err
		}
		pop = db.Records
		if srv, err = startServer(cfg, fmt.Sprintf("server-%d.log", try), "-schema", "census", "-scheme", "mask"); err != nil {
			return err
		}
		if client, err = newClient(srv.base); err != nil {
			return err
		}
		if singles, err = prepareSingles(client, pop); err != nil {
			return err
		}
		// Pre-fill closed-loop on one connection: the single-record
		// submit saturation rate.
		conn := newConn()
		p0 := time.Now()
		for _, body := range singles[:mixedPrefill] {
			rep.Attempted++
			if err := postSingle(conn, srv.base, body); err != nil {
				rep.Failed++
				return fmt.Errorf("pre-fill: %w", err)
			}
		}
		rates = append(rates, mixedPrefill/time.Since(p0).Seconds())
		conn.CloseIdleConnections()
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.stop()
	rep.set("setup_s", median(setups), "s", len(setups))
	quiesce()
	rep.set("ingest_capacity_rps", median(rates), "1/s", len(rates))
	rep.detail["setup_s_all"] = setups
	rep.detail["prefill_rps_all"] = rates

	pool, err := newQueryPool(client.Schema(), pop, queryBatches, queryBatch, cfg.seed)
	if err != nil {
		return err
	}
	minsups := minsupSequence(20_000, cfg.seed)
	writer, reader := newConn(), newConn()
	defer closeConns([]*http.Client{writer, reader})
	var rd closedStats
	done := make(chan struct{})
	go func() {
		defer close(done)
		rd = closedLoop([]*http.Client{reader}, dur, analystStep(srv.base, pool, minsups, mixedQueryRatio, mixedMaxLen))
	}()
	wr := openLoop([]*http.Client{writer}, mixedWriteRate, dur, func(c *http.Client, op int) error {
		return postSingle(c, srv.base, singles[mixedPrefill+op])
	})
	<-done
	rep.Attempted += int64(wr.issued + rd.attempts)
	rep.Failed += int64(wr.failed + rd.failed)
	for _, err := range []error{wr.firstErr, rd.firstErr} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: mixed error:", err)
		}
	}
	latencies(rep, "submit", wr.lat, 0.90)
	latencies(rep, "query", rd.lat["query"], 0.90)
	latencies(rep, "mine", rd.lat["mine"], 0.90)
	rep.detail["generator_late_p99_ms"] = percentile(wr.lateMs, 0.99)
	rep.detail["writes"] = map[string]any{"offered_rps": mixedWriteRate, "due": wr.due, "acked": len(wr.acked)}
	fmt.Printf("generator lateness p99: %.3f ms (n=%d)\n", percentile(wr.lateMs, 0.99), len(wr.lateMs))

	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	off, err := newOffline(client)
	if err != nil {
		return err
	}
	tr := newTruth(client.Schema())
	idx := make([]int, 0, mixedPrefill+len(wr.acked))
	for i := range mixedPrefill {
		idx = append(idx, i)
	}
	for _, op := range wr.acked {
		idx = append(idx, mixedPrefill+op)
	}
	for _, i := range idx {
		items, err := decodeSingle(client.Schema(), client.Scheme(), singles[i])
		if err != nil {
			return err
		}
		if err := off.counter.Ingest(items); err != nil {
			return err
		}
		if err := tr.add(pop[i], 1); err != nil {
			return err
		}
	}
	finish(rep, srv, client, off, tr, pool, mixedMaxLen, rss)
	return nil
}
