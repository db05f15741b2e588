package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// newConn returns a client that holds exactly one connection, so the
// generator's concurrency is the number of clients it uses.
func newConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
}

func closeConns(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// expect sends req and requires the given status, decoding the body
// into out when out is non-nil.
func expect(c *http.Client, req *http.Request, status int, out any) error {
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != status {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(msg))
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

func postBatch(c *http.Client, base string, p *service.PreparedBatch) error {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/submit-batch", bytes.NewReader(p.Body()))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", p.ContentType())
	req.Header.Set(service.FingerprintHeader, p.Fingerprint())
	return expect(c, req, http.StatusAccepted, nil)
}

func postSingle(c *http.Client, base string, body []byte) error {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/submit", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return expect(c, req, http.StatusAccepted, nil)
}

func postQuery(c *http.Client, base string, body []byte, out *service.QueryResponse) error {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return expect(c, req, http.StatusOK, out)
}

// getMine runs a synchronous /v1/mine to completion. maxlen 0 mines at
// full depth.
func getMine(c *http.Client, base string, minsup float64, maxlen, limit int, out *service.MineResponse) error {
	url := base + "/v1/mine?minsup=" + strconv.FormatFloat(minsup, 'g', -1, 64) +
		"&limit=" + strconv.Itoa(limit)
	if maxlen > 0 {
		url += "&maxlen=" + strconv.Itoa(maxlen)
	}
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return expect(c, req, http.StatusOK, out)
}

func getStats(base string) (*service.StatsResponse, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	var st service.StatsResponse
	c := newConn()
	defer c.CloseIdleConnections()
	return &st, expect(c, req, http.StatusOK, &st)
}

// openStats is the outcome of one open-loop phase.
type openStats struct {
	due      int       // ops due within the phase
	issued   int       // ops sent
	failed   int       // ops that errored or got an unexpected status
	acked    []int     // op indexes the server accepted
	lat      []sample  // per accepted op: completion − due time (see openLoop)
	lateMs   []float64 // per op the generator slept for: wake-up − due
	firstErr error
}

// openLoop offers ops at a fixed rate for dur over the given
// connections: op i is due at start + i/rate whatever happened to the
// ones before it, so a stall shows up as latency of every op queued
// behind it (each is timed from its due time, not its send time). A
// connection takes the next op as soon as it is free; ops still unsent
// when the phase ends are the backlog.
func openLoop(conns []*http.Client, rate float64, dur time.Duration, send func(c *http.Client, op int) error) openStats {
	var (
		next atomic.Int64
		mu   sync.Mutex
		st   openStats
		wg   sync.WaitGroup
	)
	start := time.Now()
	end := start.Add(dur)
	interval := float64(time.Second) / rate
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var acked []int
			var lat []sample
			var late []float64
			var issued, failed int
			var firstErr error
			for {
				i := int(next.Add(1) - 1)
				due := start.Add(time.Duration(float64(i) * interval))
				if !due.Before(end) {
					break
				}
				now := time.Now()
				if !now.Before(end) {
					break
				}
				// An op is timed from its due time. When the connection
				// was idle and the generator slept past the due time,
				// that oversleep is the generator's own lateness (timer
				// slack is ~1 ms here): it is recorded apart and the op
				// is timed from the wake-up instead.
				from := due
				if wait := due.Sub(now); wait > 0 {
					time.Sleep(wait)
					from = time.Now()
					late = append(late, ms(from.Sub(due)))
				}
				issued++
				if err := send(c, i); err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				lat = append(lat, sample{at: time.Since(start).Seconds(), ms: ms(time.Since(from))})
				acked = append(acked, i)
			}
			mu.Lock()
			st.acked = append(st.acked, acked...)
			st.lat = append(st.lat, lat...)
			st.lateMs = append(st.lateMs, late...)
			st.issued += issued
			st.failed += failed
			if st.firstErr == nil {
				st.firstErr = firstErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	st.due = int(dur.Seconds() * rate)
	return st
}

// closedStats is the outcome of a closed-loop phase: latencies per op
// class and counts.
type closedStats struct {
	lat      map[string][]sample
	attempts int
	failed   int
	firstErr error
	elapsed  time.Duration
}

// closedLoop runs one goroutine per connection; each calls step with
// its connection and iteration number until dur has passed. step
// returns the op class it timed, the latency, and the error.
func closedLoop(conns []*http.Client, dur time.Duration, step func(worker, iter int, c *http.Client) (class string, d time.Duration, err error)) closedStats {
	var (
		mu sync.Mutex
		st = closedStats{lat: map[string][]sample{}}
		wg sync.WaitGroup
	)
	start := time.Now()
	end := start.Add(dur)
	for w, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lat := map[string][]sample{}
			var attempts, failed int
			var firstErr error
			for iter := 0; time.Now().Before(end); iter++ {
				class, d, err := step(w, iter, c)
				if class == "" {
					break
				}
				attempts++
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				lat[class] = append(lat[class], sample{at: time.Since(start).Seconds(), ms: ms(d)})
			}
			mu.Lock()
			for k, v := range lat {
				st.lat[k] = append(st.lat[k], v...)
			}
			st.attempts += attempts
			st.failed += failed
			if st.firstErr == nil {
				st.firstErr = firstErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	return st
}
