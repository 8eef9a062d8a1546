package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"multitherm/internal/core"
	"multitherm/internal/floorplan"
	"multitherm/internal/serve"
)

const (
	// openRate is serve_open's offered rate in requests per second,
	// split by openMix.
	openRate = 150
	// zipfS skews paper-cell popularity: rank k is drawn with weight
	// proportional to 1/(1+k)^zipfS.
	zipfS = 1.1
	// minOneOffCores and maxOneOffCores bound the one-off grid cells to
	// small, dense thermal networks, so a miss costs about what a paper
	// cell does.
	minOneOffCores, maxOneOffCores = 4, 6
	// pctWindow splits the schedule into windows by due time; the
	// latency percentiles are medians of the windows' percentiles, so a
	// few seconds of host slowdown do not set a run's tail.
	pctWindow = 2 * time.Second
	// maxLateness is the generator's validity bound: past three mean
	// inter-arrival gaps at its p99, arrivals bunch and the offered load
	// is no longer the stated Poisson rate, so the run is invalid.
	maxLateness = 3 * time.Second / openRate
	// scheduleLead is how long after it starts the generator sends its
	// first request.
	scheduleLead = 50 * time.Millisecond
)

// Request kinds of the open-loop mix.
const (
	kindSim    = iota // a paper cell drawn by Zipf popularity
	kindOneOff        // a grid cell never requested before in the run
	kindSweep         // 12-48 distinct paper cells by Zipf popularity
	kindTrace         // a paper cell's NDJSON trace stream
)

// openMix is the share of each request kind in serve_open. Paper cells
// are cached in set-up, standing in for a server that has been up a
// while, so /v1/sim misses are the one-off cells: about 3 % of /v1/sim
// requests, spread evenly over the run.
var openMix = [...]float64{kindSim: 0.776, kindOneOff: 0.024, kindSweep: 0.16, kindTrace: 0.04}

// arrival is one scheduled request of the open loop.
type arrival struct {
	due   time.Duration // offset from the schedule's start
	kind  int
	cells []cellReq
}

// openInputs derives serve_open's inputs from the seed: the paper cells
// in popularity order and the arrival schedule. The server process and
// the generator process both call it and get the same inputs.
//
// Arrivals are Poisson at openRate for the run's seconds, each with a
// kind from openMix.
func openInputs(seed int64, seconds time.Duration) ([]cellReq, []arrival, error) {
	rng := rand.New(rand.NewSource(seed))
	popular := paperCells()
	rng.Shuffle(len(popular), func(i, j int) { popular[i], popular[j] = popular[j], popular[i] })
	oneOffs := oneOffCells(rng)
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(popular)-1))
	var out []arrival
	var at time.Duration
	for {
		at += time.Duration(rng.ExpFloat64() / openRate * float64(time.Second))
		if at >= seconds {
			return popular, out, nil
		}
		a := arrival{due: at, kind: pickKind(rng.Float64())}
		switch a.kind {
		case kindSim, kindTrace:
			a.cells = []cellReq{popular[zipf.Uint64()]}
		case kindOneOff:
			if len(oneOffs) == 0 {
				return nil, nil, errors.New("the one-off grid cells ran out; lower openRate or the one-off share")
			}
			a.cells, oneOffs = oneOffs[:1], oneOffs[1:]
		case kindSweep:
			n := 12 + rng.Intn(48-12+1)
			seen := map[string]bool{}
			for len(a.cells) < n {
				if c := popular[zipf.Uint64()]; !seen[c.Key] {
					seen[c.Key] = true
					a.cells = append(a.cells, c)
				}
			}
		}
		out = append(out, a)
	}
}

func pickKind(u float64) int {
	for k, share := range openMix {
		if u < share {
			return k
		}
		u -= share
	}
	return kindSim
}

// oneOffCells is every grid cell of minOneOffCores to maxOneOffCores
// cores, in a seeded order; each run requests a prefix of it, once per
// cell.
func oneOffCells(rng *rand.Rand) []cellReq {
	var out []cellReq
	for rows := 1; rows <= maxOneOffCores; rows++ {
		for cols := 1; rows*cols <= maxOneOffCores; cols++ {
			if rows*cols < minOneOffCores {
				continue
			}
			grid := fmt.Sprintf("%dx%d", rows, cols)
			for _, p := range core.Taxonomy() {
				out = append(out, cellReq{Spec: serve.CellSpec{Floorplan: grid, Policy: p.CLIName()},
					Key: grid + "/" + p.CLIName()})
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// h2cClient multiplexes requests over cleartext HTTP/2, on at most one
// connection per CPU.
func h2cClient() *http.Client {
	h2c := new(http.Protocols)
	h2c.SetUnencryptedHTTP2(true)
	return &http.Client{Timeout: requestTimeout, Transport: &http.Transport{
		Protocols: h2c, MaxConnsPerHost: runtime.NumCPU(), DisableCompression: true}}
}

// serveOpen is an open loop of independent users: Poisson arrivals at
// one fixed offered rate, multiplexed over cleartext HTTP/2. The server
// runs in this process; the generator runs in a child process, so its
// timers are not queued behind the server's simulations in one Go
// scheduler.
type serveOpen struct {
	srv      *server
	client   *http.Client
	schedule []arrival
}

func (o *serveOpen) setup(b *bench) error {
	popular, schedule, err := openInputs(b.seed, b.seconds)
	if err != nil {
		return err
	}
	o.schedule = schedule
	// Cold grid builds happen in set-up, timed one by one.
	var used []cellReq
	var gridMS []float64
	seen := map[string]bool{}
	for _, a := range schedule {
		for _, c := range a.cells {
			used = append(used, c)
			if g := c.Spec.Floorplan; g != "" && !seen[g] {
				seen[g] = true
				s := time.Now()
				if _, err := floorplan.ParseGridSpec(g); err != nil {
					return err
				}
				gridMS = append(gridMS, ms(time.Since(s)))
			}
		}
	}
	b.set("floorplan.grid_ms", median(gridMS))
	s := time.Now()
	if err := warmMemos(append(popular, used...)); err != nil {
		return err
	}
	b.tr.record(0, 0, "setup.warm_memos", s, time.Now(), 0)
	if o.srv, err = startServer(); err != nil {
		return err
	}
	o.client = h2cClient()
	_, err = prewarm(b, o.srv, o.client, popular)
	return err
}

func (o *serveOpen) close() {
	if o.client != nil {
		o.client.CloseIdleConnections()
	}
	o.srv.close()
}

// genReport is what the generator process hands back.
type genReport struct {
	// Latencies in milliseconds from each request's due time: Sim holds
	// every /v1/sim request, SimDue its due time in seconds from the
	// schedule's start, OneOff the one-off subset; FirstLine is a
	// trace's first NDJSON line; Late is how long after its due time the
	// generator sent each request.
	Sim, SimDue, OneOff, Sweep, Trace, FirstLine, Late []float64
	Attempted, Failed, Traces                          int
	RunS                                               float64
	Ledger                                             *bodyLedger
}

// windowPercentiles returns, for each of ps, the median over
// pctWindow-long windows of due time of each window's percentile.
func windowPercentiles(lat, due []float64, ps ...float64) []float64 {
	windows := map[int][]float64{}
	for i, v := range lat {
		w := int(due[i] / pctWindow.Seconds())
		windows[w] = append(windows[w], v)
	}
	out := make([]float64, len(ps))
	for i, p := range ps {
		var perWindow []float64
		for _, xs := range windows {
			perWindow = append(perWindow, percentile(xs, p))
		}
		out[i] = median(perWindow)
	}
	return out
}

func (o *serveOpen) measure(b *bench) error {
	before, err := o.srv.stats(o.client)
	if err != nil {
		return err
	}
	meter := startBusy()
	rep, err := spawnGenerator(b, o.srv.url)
	if err != nil {
		return err
	}
	meter.stop(b)
	after, err := o.srv.stats(o.client)
	if err != nil {
		return err
	}
	statsDelta(b, before, after, int64(rep.Traces))

	lateP99 := percentile(rep.Late, 99)
	pct := windowPercentiles(rep.Sim, rep.SimDue, 50, 90, 99)
	b.set("run_s", rep.RunS)
	b.set("p50_ms", pct[0])
	b.set("p90_ms", pct[1])
	b.set("p99_ms", pct[2])
	b.set("serve.rps", float64(rep.Attempted)/rep.RunS)
	b.set("serve.sweep_p50_ms", percentile(rep.Sweep, 50))
	b.set("serve.sweep_p90_ms", percentile(rep.Sweep, 90))
	b.set("serve.trace_p50_ms", percentile(rep.Trace, 50))
	b.set("serve.trace_first_line_ms", percentile(rep.FirstLine, 50))
	b.set("gen.late_p50_ms", percentile(rep.Late, 50))
	b.set("gen.late_p99_ms", lateP99)
	b.note("offered %d req/s on %d CPUs (GOMAXPROCS %d): %d requests, %d /v1/sim (%d one-off), %d sweeps, %d traces",
		openRate, runtime.NumCPU(), gomaxprocs(), len(o.schedule), len(rep.Sim), len(rep.OneOff), len(rep.Sweep), len(rep.Trace))
	b.note("generator lateness p50 %.3f ms p99 %.3f ms (validity bound %v)", percentile(rep.Late, 50), lateP99, maxLateness)
	if lateP99 > ms(maxLateness) {
		return fmt.Errorf("run invalid: generator p99 lateness %.3f ms exceeds %v, three mean inter-arrival gaps", lateP99, maxLateness)
	}

	workers := gomaxprocs()
	if b.traced {
		workers = 1 // service times without contention
	}
	bad, serviceMS, err := rep.Ledger.verify(workers)
	if err != nil {
		return err
	}
	b.attempted, b.failed = rep.Attempted, rep.Failed+bad
	if !b.traced {
		return nil
	}
	var oneOffService []float64
	for _, a := range o.schedule {
		if a.kind == kindOneOff {
			oneOffService = append(oneOffService, serviceMS[a.cells[0].Key])
		}
	}
	b.set("serve.miss_service_ms", median(oneOffService))
	b.set("serve.miss_wait_ms", percentile(rep.OneOff, 50)-median(oneOffService))
	if err := hitPath(b, o.srv, o.client, rep.Ledger); err != nil {
		return err
	}
	// Each miss is one sim.New+Run of a small cell, so the N=4 tick
	// breakdown at the server's simulated time belongs to this workload.
	return tickBreakdown(b, paperTickCell(serveSimTime))
}

// spawnGenerator runs the open loop in a child process of this binary
// against url and decodes its report.
func spawnGenerator(b *bench, url string) (*genReport, error) {
	ctx, cancel := context.WithTimeout(context.Background(), b.seconds+2*requestTimeout)
	defer cancel()
	out, err := runChild(ctx, b, "--generator", url)
	if err != nil {
		return nil, fmt.Errorf("generator process: %w", err)
	}
	var rep genReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return nil, fmt.Errorf("decoding the generator's report: %w", err)
	}
	if rep.Ledger == nil || rep.Attempted == 0 {
		return nil, errors.New("the generator reported no requests")
	}
	return &rep, nil
}

// generator is the open loop's sending side.
type generator struct {
	client *http.Client
	url    string
	tr     *tracer
	ledger *bodyLedger

	mu  sync.Mutex
	rep genReport
}

// runGenerator is the child process's whole job: rebuild the seeded
// schedule, send every request at its due time from one process, check
// every body, and print the report on stdout.
func runGenerator(b *bench, url string) error {
	_, schedule, err := openInputs(b.seed, b.seconds)
	if err != nil {
		return err
	}
	g := &generator{client: h2cClient(), url: url, tr: b.tr, ledger: newLedger()}
	defer g.client.CloseIdleConnections()
	var wg sync.WaitGroup
	start := time.Now().Add(scheduleLead)
	for i := range schedule {
		a := &schedule[i]
		due := start.Add(a.due)
		// A sleeping generator wakes promptly even when the server keeps
		// both CPUs busy; spinning to shave the sleep's overshoot made the
		// scheduler deprioritize it and raised the p99 lateness tenfold.
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late := ms(time.Since(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := g.send(a, due, int64(i+1))
			g.mu.Lock()
			defer g.mu.Unlock()
			g.rep.Late = append(g.rep.Late, late)
			g.rep.Attempted++
			if err != nil {
				g.rep.Failed++
				if g.rep.Failed <= 5 {
					fmt.Fprintf(os.Stderr, "perfbench: request failed: %v\n", err)
				}
			}
		}()
	}
	wg.Wait()
	g.rep.RunS = time.Since(start).Seconds()
	g.rep.Ledger = g.ledger
	if err := b.tr.write(spanDir, fmt.Sprintf("%s-seed%d-generator.jsonl", b.name, b.seed)); err != nil {
		return err
	}
	out, err := json.Marshal(&g.rep)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(out)
	return err
}

// record appends one latency sample under the report lock.
func (g *generator) record(dst *[]float64, v float64) {
	g.mu.Lock()
	*dst = append(*dst, v)
	g.mu.Unlock()
}

// send issues one scheduled request and checks its bodies.
func (g *generator) send(a *arrival, due time.Time, req int64) error {
	s := time.Now()
	var name string
	var err error
	switch a.kind {
	case kindSim, kindOneOff:
		name = "POST /v1/sim"
		var body []byte
		if body, err = post(g.client, g.url+"/v1/sim", mustJSON(a.cells[0].Spec)); err == nil {
			if !g.ledger.check(a.cells[0], body) {
				err = fmt.Errorf("%s: body differs from an earlier response", a.cells[0].Key)
			}
		}
		lat := ms(time.Since(due))
		g.mu.Lock()
		g.rep.Sim = append(g.rep.Sim, lat)
		g.rep.SimDue = append(g.rep.SimDue, a.due.Seconds())
		if a.kind == kindOneOff {
			g.rep.OneOff = append(g.rep.OneOff, lat)
		}
		g.mu.Unlock()
	case kindSweep:
		name = "POST /v1/sweep"
		err = g.sweep(a.cells)
		g.record(&g.rep.Sweep, ms(time.Since(due)))
	case kindTrace:
		name = "POST /v1/sim/trace"
		var first time.Time
		first, err = g.trace(a.cells[0])
		g.record(&g.rep.Trace, ms(time.Since(due)))
		if err == nil {
			g.record(&g.rep.FirstLine, ms(first.Sub(due)))
			g.mu.Lock()
			g.rep.Traces++
			g.mu.Unlock()
		}
	}
	g.tr.record(0, req, name, s, time.Now(), len(a.cells))
	return err
}

func (g *generator) sweep(cells []cellReq) error {
	bodies, err := postSweep(g.client, g.url, cells)
	if err != nil {
		return err
	}
	for i, c := range cells {
		if !g.ledger.check(c, bodies[i]) {
			return fmt.Errorf("%s: sweep body differs from an earlier response", c.Key)
		}
	}
	return nil
}

// trace reads a whole NDJSON stream and checks its final result line;
// it returns when the first line arrived.
func (g *generator) trace(c cellReq) (time.Time, error) {
	resp, err := g.client.Post(g.url+"/v1/sim/trace", "application/json",
		bytes.NewReader(mustJSON(serve.TraceRequest{CellSpec: c.Spec})))
	if err != nil {
		return time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return time.Time{}, fmt.Errorf("trace status %d", resp.StatusCode)
	}
	rd := bufio.NewReader(resp.Body)
	var first time.Time
	var last []byte
	for {
		line, err := rd.ReadBytes('\n')
		if len(line) > 0 {
			if first.IsZero() {
				first = time.Now()
			}
			last = line
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return first, err
		}
	}
	const prefix, suffix = `{"result":`, "}\n"
	if !bytes.HasPrefix(last, []byte(prefix)) || !bytes.HasSuffix(last, []byte(suffix)) {
		return first, fmt.Errorf("%s: trace stream ended without a result line", c.Key)
	}
	if !g.ledger.check(c, last[len(prefix):len(last)-len(suffix)]) {
		return first, fmt.Errorf("%s: trace result differs from an earlier response", c.Key)
	}
	return first, nil
}
