package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// serveHot is a closed loop of one client per CPU, each on its own
// HTTP/1.1 keep-alive connection, replaying prewarmed cells so every
// request hits the result cache.
type serveHot struct {
	srv     *server
	clients []*http.Client
	cells   []cellReq
	bodies  [][]byte // request bodies, by cell
	want    [][]byte // prewarmed response bodies, by cell
}

func (h *serveHot) setup(b *bench) error {
	h.cells = paperCells()
	if err := warmMemos(h.cells); err != nil {
		return err
	}
	var err error
	if h.srv, err = startServer(); err != nil {
		return err
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		h.clients = append(h.clients, &http.Client{Timeout: requestTimeout, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}})
	}
	for _, c := range h.cells {
		h.bodies = append(h.bodies, mustJSON(c.Spec))
	}
	h.want, err = prewarm(b, h.srv, h.clients[0], h.cells)
	return err
}

func (h *serveHot) close() {
	for _, c := range h.clients {
		c.CloseIdleConnections()
	}
	h.srv.close()
}

func (h *serveHot) measure(b *bench) error {
	before, err := h.srv.stats(h.clients[0])
	if err != nil {
		return err
	}
	n := len(h.clients)
	fails := make([]int, n)
	orders := make([][]int, n)
	for i := range orders {
		orders[i] = rand.New(rand.NewSource(b.seed*1000 + int64(i))).Perm(len(h.cells))
	}
	meter := startBusy()
	var passS, passP50, passP90, passP99 []float64
	var requests int
	start := time.Now()
	for morePasses(passS, start, b.seconds) {
		passID := b.tr.id()
		lat := make([][]float64, n)
		p0 := time.Now()
		var wg sync.WaitGroup
		for ci := range h.clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := new(bytes.Buffer)
				order := orders[ci]
				for k := 0; k < hotPassRequests; k++ {
					cell := order[(len(passS)*hotPassRequests+k)%len(order)]
					s := time.Now()
					err := h.hit(h.clients[ci], buf, cell)
					e := time.Now()
					lat[ci] = append(lat[ci], ms(e.Sub(s)))
					if err != nil {
						fails[ci]++
					}
					b.tr.record(passID, int64(ci*hotPassRequests+k+1), "POST /v1/sim", s, e, 1)
				}
			}()
		}
		wg.Wait()
		p1 := time.Now()
		b.tr.add(passID, 0, 0, "pass", p0, p1, 0)
		passS = append(passS, p1.Sub(p0).Seconds())
		var all []float64
		for _, l := range lat {
			all = append(all, l...)
		}
		passP50 = append(passP50, percentile(all, 50))
		passP90 = append(passP90, percentile(all, 90))
		passP99 = append(passP99, percentile(all, 99))
		requests += n * hotPassRequests
	}
	total := time.Since(start)
	meter.stop(b)
	after, err := h.srv.stats(h.clients[0])
	if err != nil {
		return err
	}
	statsDelta(b, before, after, 0)

	for _, f := range fails {
		b.failed += f
	}
	b.attempted += requests
	// Percentiles are taken per pass and their median reported, so one
	// pass that meets a GC cycle or a host hiccup does not set the run.
	b.set("run_s", median(passS))
	b.set("p50_ms", median(passP50))
	b.set("p90_ms", median(passP90))
	b.set("p99_ms", median(passP99))
	b.set("serve.rps", float64(requests)/total.Seconds())
	b.note("closed loop of %d clients on %d CPUs: %d passes of %d requests, %.0f req/s",
		n, runtime.NumCPU(), len(passS), n*hotPassRequests, float64(requests)/total.Seconds())

	// Every prewarmed body must equal a direct recomputation.
	ledger := newLedger()
	for i, c := range h.cells {
		ledger.check(c, h.want[i])
	}
	bad, _, err := ledger.verify(gomaxprocs())
	if err != nil {
		return err
	}
	if bad > 0 {
		b.failed += requests // every hit replayed the checked bodies
	}
	if !b.traced {
		return nil
	}
	return hitPath(b, h.srv, h.clients[0], ledger)
}

// hit sends one cached cell and checks the body byte for byte.
func (h *serveHot) hit(c *http.Client, buf *bytes.Buffer, cell int) error {
	resp, err := c.Post(h.srv.url+"/v1/sim", "application/json", bytes.NewReader(h.bodies[cell]))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	if !bytes.Equal(buf.Bytes(), h.want[cell]) {
		return fmt.Errorf("%s: body differs from the prewarmed response", h.cells[cell].Key)
	}
	return nil
}
