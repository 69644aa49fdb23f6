package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"distcolor"
	"distcolor/internal/core"
	"distcolor/internal/graph"
	"distcolor/internal/local"
	"distcolor/internal/serve/runcfg"
)

// serveWorkload drives the distcolor-serve binary over loopback with a
// fixed number of closed-loop clients, each waiting for every reply
// (?wait=true), issuing a seeded mix of fresh jobs, coalesced replays and
// edge-list uploads.
type serveWorkload struct {
	gen      string // generator spec of the job and upload graphs
	pool     int    // gen-spec graphs the fresh jobs run on
	uploads  int    // distinct edge-list bodies the uploads cycle through
	algo     string
	clients  int
	workers  int
	cache    int64 // -cache bound, in adjacency entries (n + 2m per graph)
	sample   int   // latest fresh jobs per client re-checked in-process after the run
	coreJobs int   // first fresh ops per client a traced run re-runs through core
	tailP    int   // job_s.tail's percentile
	// freshPct and replayPct are the op mix in percent; the rest of 100
	// are uploads. No recorded traffic exists, so the mix is assumed: half
	// fresh jobs, the compute path the end-to-end metrics time, and enough
	// replays and uploads for steady medians of their latencies.
	freshPct  int
	replayPct int
	// retain is the server's -retain: terminal jobs (with their colorings)
	// kept for coalescing, sized to what replays reach (2·replayWindow)
	// with room to spare. The default, 4096 jobs of ~160 KB colors each,
	// does not fill within a run, so rss_peak_mb would grow with the
	// number of jobs a run completes.
	retain int
	// replayWindow is how many of a client's latest fresh jobs a replay
	// picks from; both clients' windows fit in retain, so every replay
	// finds its job.
	replayWindow int
}

var serveMixed = serveWorkload{
	gen:     "apollonian:20000",
	pool:    6,
	uploads: 4,
	algo:    "planar6",
	clients: 2,
	workers: 2,
	// Three apollonian:20000 graphs (n + 2m ≈ 140k each): half the job
	// pool, so the store evicts, spills and re-admits throughout the run.
	cache:        420_000,
	sample:       1,
	coreJobs:     4,
	tailP:        90,
	freshPct:     50,
	replayPct:    30,
	retain:       256,
	replayWindow: 64,
}

// opKind is one request type of the serve mix.
type opKind int

const (
	opFresh  opKind = iota // new planar6 job, then GET its colors
	opReplay               // resubmit an earlier fresh job: coalesced
	opUpload               // POST a new text edge-list graph
)

func (k opKind) String() string {
	return [...]string{"fresh", "replay", "upload"}[k]
}

// serveOp is one entry of a client's request list.
type serveOp struct {
	kind   opKind
	graph  int    // fresh: pool index
	seed   uint64 // fresh: job seed
	replay int    // replay: index of the earlier fresh op in the list
	body   int    // upload: edge-list body index
	binary bool   // fresh: fetch colors as application/octet-stream
}

// ops returns the first n requests of one client's list. The list is a
// pure function of (seed, client): a replay names one of the latest
// replayWindow fresh ops of the same list, so which job it coalesces onto
// never depends on timing.
func (w serveWorkload) ops(seed uint64, client, n int) []serveOp {
	stream := fmt.Sprintf("serve/client%d", client)
	var out []serveOp
	var fresh []int
	for i := 0; i < n; i++ {
		r := derive(seed, stream+"/op", i)
		pct := int(r % 100)
		op := serveOp{kind: opFresh}
		switch {
		case pct >= w.freshPct+w.replayPct:
			op = serveOp{kind: opUpload, body: int(derive(seed, stream+"/body", i) % uint64(w.uploads))}
		case pct >= w.freshPct && len(fresh) > 0:
			back := int(derive(seed, stream+"/replay", i) % uint64(min(len(fresh), w.replayWindow)))
			op = serveOp{kind: opReplay, replay: fresh[len(fresh)-1-back]}
		}
		if op.kind == opFresh {
			op.graph = int(derive(seed, stream+"/graph", i) % uint64(w.pool))
			op.seed = derive(seed, stream+"/job", i)
			op.binary = len(fresh)%2 == 1
			fresh = append(fresh, i)
		}
		out = append(out, op)
	}
	return out
}

// serveInputs are the graphs of one run, built in-process: the job pool
// (the server generates the same graphs from the same specs) and the
// upload bodies.
type serveInputs struct {
	pool      []*graph.Graph
	poolSeeds []uint64
	bodies    [][]byte
	bodyDims  [][2]int // n, m of each body
	bound     int
}

func (w serveWorkload) inputs(seed uint64) (*serveInputs, error) {
	in := &serveInputs{}
	for k := 0; k < w.pool; k++ {
		s := derive(seed, "serve/graph", k)
		g, err := runcfg.Generate(w.gen, s)
		if err != nil {
			return nil, fmt.Errorf("generating %s: %w", w.gen, err)
		}
		in.pool = append(in.pool, g)
		in.poolSeeds = append(in.poolSeeds, s)
	}
	for k := 0; k < w.uploads; k++ {
		g, err := runcfg.Generate(w.gen, derive(seed, "serve/upload", k))
		if err != nil {
			return nil, fmt.Errorf("generating %s: %w", w.gen, err)
		}
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			return nil, fmt.Errorf("encoding upload body: %w", err)
		}
		in.bodies = append(in.bodies, buf.Bytes())
		in.bodyDims = append(in.bodyDims, [2]int{g.N(), g.M()})
	}
	var err error
	in.bound, err = paletteBound(w.algo, in.pool[0], nil)
	return in, err
}

// server is one running distcolor-serve process.
type server struct {
	cmd   *exec.Cmd
	base  string
	spill string
	log   *os.File
	exit  chan error // receives the process's exit status once
}

// startServer launches the binary on a free loopback port and waits until
// /healthz answers.
func (w serveWorkload) startServer(ctx context.Context, rc runConfig, hc *http.Client) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("finding a free port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()
	spill, err := os.MkdirTemp(rc.workDir, "spill-")
	if err != nil {
		return nil, fmt.Errorf("creating spill dir: %w", err)
	}
	logf, err := os.Create(filepath.Join(rc.workDir, "server.log"))
	if err != nil {
		os.RemoveAll(spill)
		return nil, fmt.Errorf("creating server log: %w", err)
	}
	cmd := exec.Command(rc.serveBin,
		"-addr", addr,
		"-workers", strconv.Itoa(w.workers),
		"-cache", strconv.FormatInt(w.cache, 10),
		"-retain", strconv.Itoa(w.retain),
		"-spill-dir", spill,
		"-log-level", "warn")
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		os.RemoveAll(spill)
		return nil, fmt.Errorf("starting %s: %w", rc.serveBin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, spill: spill, log: logf, exit: make(chan error, 1)}
	go func() { s.exit <- cmd.Wait() }()
	for deadline := time.Now().Add(15 * time.Second); ; {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/healthz", nil)
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.exit:
			s.exit <- err
			s.stop()
			return nil, fmt.Errorf("server exited during start-up (%v); see %s", err, logf.Name())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("server not healthy after 15s; see %s", logf.Name())
		}
	}
}

// stop terminates the server, waits for it to exit and removes its spill
// directory.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exit:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exit
	}
	s.log.Close()
	os.RemoveAll(s.spill)
}

// client is the benchmark's HTTP side, shared by its closed-loop clients.
type client struct {
	hc   *http.Client
	base string
}

// jobReply is the subset of the server's job JSON the benchmark reads.
type jobReply struct {
	ID        string  `json:"id"`
	Status    string  `json:"status"`
	Coalesced bool    `json:"coalesced"`
	Error     string  `json:"error"`
	Rounds    int     `json:"rounds"`
	Verified  bool    `json:"verified"`
	QueueMs   float64 `json:"queue_ms"`
	RunMs     float64 `json:"run_ms"`
}

// send makes one request and returns the reply body, failing on any status
// other than want. Empty ctype and accept leave those headers unset.
func (c *client) send(ctx context.Context, method, path, ctype, accept string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading reply: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return raw, nil
}

// do is send with a JSON reply decoded into out.
func (c *client) do(ctx context.Context, method, path, ctype string, body []byte, want int, out any) error {
	raw, err := c.send(ctx, method, path, ctype, "", body, want)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
	}
	return nil
}

// submit posts one job and waits for it.
func (c *client) submit(ctx context.Context, body []byte) (*jobReply, error) {
	var j jobReply
	if err := c.do(ctx, http.MethodPost, "/v1/jobs?wait=true&timeout=120s", "application/json", body, http.StatusAccepted, &j); err != nil {
		return nil, err
	}
	if j.Status != "done" || !j.Verified {
		return nil, fmt.Errorf("job %s: status %s, verified %v: %s", j.ID, j.Status, j.Verified, j.Error)
	}
	return &j, nil
}

// colors fetches a job's coloring, as JSON or as raw little-endian int32.
func (c *client) colors(ctx context.Context, id string, bin bool) ([]int, error) {
	accept := ""
	if bin {
		accept = "application/octet-stream"
	}
	raw, err := c.send(ctx, http.MethodGet, "/v1/jobs/"+id+"/colors", "", accept, nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	if !bin {
		var body struct {
			Colors []int `json:"colors"`
		}
		if err := json.Unmarshal(raw, &body); err != nil {
			return nil, fmt.Errorf("colors of %s: %w", id, err)
		}
		return body.Colors, nil
	}
	if len(raw)%4 != 0 {
		return nil, fmt.Errorf("colors of %s: %d bytes is not a whole number of int32", id, len(raw))
	}
	out := make([]int, len(raw)/4)
	for i := range out {
		out[i] = int(int32(binary.LittleEndian.Uint32(raw[4*i:])))
	}
	return out, nil
}

// metrics scrapes /metrics into name → value, summing label variants.
func (c *client) metrics(ctx context.Context) (map[string]float64, error) {
	raw, err := c.send(ctx, http.MethodGet, "/metrics", "", "", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			out[name] += v
		}
	}
	return out, nil
}

// jobBody is the JSON of a fresh op's job (and of its replays).
func (w serveWorkload) jobBody(in *serveInputs, graph int, seed uint64) []byte {
	return fmt.Appendf(nil, `{"gen":%q,"gen_seed":%d,"algo":%q,"seed":%d}`, w.gen, in.poolSeeds[graph], w.algo, seed)
}

// freshDone is a completed fresh op, kept for replays and the post-run
// cross-check.
type freshDone struct {
	op    serveOp
	jobID string
}

// clientState is what one closed-loop client accumulates.
type clientState struct {
	attempted, failed int
	problems          []string
	jobS, rounds      []float64
	queueS, runS      []float64
	httpS             []float64
	colorsS, binS     []float64
	uploadS, hitS     []float64
	perJob            map[string][]float64
	accounts          []float64
	done              map[int]freshDone // by op index
	sampled           []freshDone
}

func (cs *clientState) fail(format string, args ...any) {
	cs.failed++
	if len(cs.problems) < 10 {
		cs.problems = append(cs.problems, fmt.Sprintf(format, args...))
	}
}

func (w serveWorkload) run(ctx context.Context, rc runConfig) (*outcome, error) {
	if err := os.MkdirAll(rc.workDir, 0o755); err != nil {
		return nil, fmt.Errorf("creating work dir: %w", err)
	}
	hc := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     w.clients,
		MaxIdleConnsPerHost: w.clients,
		DisableCompression:  true,
	}}
	defer hc.CloseIdleConnections()
	var in *serveInputs
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	reset := func() {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		in = nil
	}
	su := &setupTimer{reset: reset}
	su.setup = func() error {
		var err error
		if in, err = w.inputs(rc.seed); err != nil {
			return err
		}
		if srv, err = w.startServer(ctx, rc, hc); err != nil {
			return err
		}
		c := &client{hc: hc, base: srv.base}
		for k, g := range in.pool {
			var reply struct {
				N int `json:"n"`
				M int `json:"m"`
			}
			body := fmt.Appendf(nil, `{"gen":%q,"seed":%d}`, w.gen, in.poolSeeds[k])
			if err := c.do(ctx, http.MethodPost, "/v1/graphs", "application/json", body, http.StatusCreated, &reply); err != nil {
				return fmt.Errorf("uploading pool graph %d: %w", k, err)
			}
			if reply.N != g.N() || reply.M != g.M() {
				return fmt.Errorf("pool graph %d: server has n=%d m=%d, benchmark n=%d m=%d", k, reply.N, reply.M, g.N(), g.M())
			}
		}
		// Warm-up: one job per color encoding, on seeds outside the run's lists.
		for i, bin := range []bool{false, true} {
			j, err := c.submit(ctx, w.jobBody(in, i, derive(rc.seed, "serve/warmup", i)))
			if err != nil {
				return fmt.Errorf("warm-up job: %w", err)
			}
			colors, err := c.colors(ctx, j.ID, bin)
			if err != nil {
				return fmt.Errorf("warm-up job: %w", err)
			}
			if err := checkColors(in.pool[i], colors, nil, in.bound); err != nil {
				return fmt.Errorf("warm-up job: %w", err)
			}
		}
		return nil
	}
	if err := su.run(setupReps / 2); err != nil {
		return nil, err
	}
	c := &client{hc: hc, base: srv.base}
	o := &outcome{metrics: map[string]float64{}}
	if rc.traced {
		o.spans = &spanLog{}
	}
	before, err := c.metrics(ctx)
	if err != nil {
		return nil, err
	}

	steal, err := startSteal()
	if err != nil {
		return nil, err
	}
	states := make([]*clientState, w.clients)
	var verified atomic.Int64 // fresh jobs verified, over all clients
	var wg sync.WaitGroup
	start := time.Now()
	for k := range states {
		states[k] = &clientState{perJob: map[string][]float64{}, done: map[int]freshDone{}}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			w.clientLoop(ctx, rc, c, in, k, start, &verified, states[k], o.spans)
		}(k)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	if o.metrics["host.steal_ratio"], err = steal.ratio(); err != nil {
		return nil, err
	}

	after, err := c.metrics(ctx)
	if err != nil {
		return nil, err
	}
	if o.metrics["rss_peak_mb"], err = peakRSSMiB(strconv.Itoa(srv.cmd.Process.Pid)); err != nil {
		return nil, err
	}
	all := &clientState{perJob: map[string][]float64{}}
	for _, cs := range states {
		all.merge(cs)
	}
	o.attempted, o.failed, o.problems = all.attempted, all.failed, all.problems
	rc.checkTail(o, len(all.jobS), w.tailP)
	w.crossCheck(ctx, c, in, all, o)

	m := o.metrics
	m["job_s.p50"] = median(all.jobS)
	m["job_s.tail"], m["job_s.tail_percentile"] = tail(all.jobS, w.tailP), float64(w.tailP)
	m["job_s.q1"], _, m["job_s.q3"] = quartiles(all.jobS)
	m["jobs_per_s"] = ratio(float64(len(all.jobS)), wall)
	m["rounds.mean"] = mean(all.rounds)
	m["serve.queue_s.p50"] = median(all.queueS)
	m["serve.run_s.p50"] = median(all.runS)
	m["serve.http_s.p50"] = median(all.httpS)
	m["serve.colors_s.p50"] = median(all.colorsS)
	m["serve.colors_bin_s.p50"] = median(all.binS)
	m["serve.upload_s.p50"] = median(all.uploadS)
	m["serve.hit_s.p50"] = median(all.hitS)
	delta := func(name string) float64 { return after[name] - before[name] }
	m["serve.coalesced_ratio"] = ratio(delta("distcolor_jobs_coalesced_total"),
		delta("distcolor_jobs_coalesced_total")+delta("distcolor_jobs_enqueued_total"))
	m["store.hit_ratio"] = ratio(delta("distcolor_graph_store_hits_total"),
		delta("distcolor_graph_store_hits_total")+delta("distcolor_graph_store_misses_total"))
	m["store.evictions"] = delta("distcolor_graph_store_evictions_total")
	m["store.spills"] = delta("distcolor_store_spills_total")
	m["store.readmissions"] = delta("distcolor_store_readmissions_total")
	if rc.traced {
		w.coreStats(ctx, rc.seed, in, all, o)
		for name, xs := range all.perJob {
			m[name] = median(xs)
		}
		// trace.overhead_s stays 0 here: the server records every job's
		// round trace whether or not a client fetches it, so no job runs
		// untraced to compare with.
		m["layers.accounted_ratio"] = median(all.accounts)
	}
	// The other half of the set-ups, after the window (see setupReps); the
	// first of them stops the measured server.
	if err := su.run(setupReps - setupReps/2); err != nil {
		return nil, err
	}
	m["setup_s"] = su.median()
	return o, nil
}

// merge folds one client's samples into cs.
func (cs *clientState) merge(o *clientState) {
	cs.attempted += o.attempted
	cs.failed += o.failed
	cs.problems = append(cs.problems, o.problems...)
	for _, p := range []struct{ dst, src *[]float64 }{
		{&cs.jobS, &o.jobS}, {&cs.rounds, &o.rounds}, {&cs.queueS, &o.queueS},
		{&cs.runS, &o.runS}, {&cs.httpS, &o.httpS}, {&cs.colorsS, &o.colorsS},
		{&cs.binS, &o.binS}, {&cs.uploadS, &o.uploadS}, {&cs.hitS, &o.hitS},
		{&cs.accounts, &o.accounts},
	} {
		*p.dst = append(*p.dst, *p.src...)
	}
	for k, xs := range o.perJob {
		cs.perJob[k] = append(cs.perJob[k], xs...)
	}
	cs.sampled = append(cs.sampled, o.sampled...)
}

// clientLoop runs one closed-loop client until the run has measured
// enough (runConfig.done); verified counts the fresh jobs all clients
// have verified.
func (w serveWorkload) clientLoop(ctx context.Context, rc runConfig, c *client, in *serveInputs,
	k int, start time.Time, verified *atomic.Int64, cs *clientState, spans *spanLog) {
	const chunk = 256 // ops generated at a time; the list is a prefix-stable function
	var list []serveOp
	fresh := 0
	for i := 0; !rc.done(start, fresh, int(verified.Load()), minSamples(w.tailP)); i++ {
		if i == len(list) {
			list = w.ops(rc.seed, k, len(list)+chunk)
		}
		op := list[i]
		cs.attempted++
		var err error
		switch op.kind {
		case opFresh:
			traced := spans != nil && fresh%2 == 1
			err = w.fresh(ctx, c, in, i, op, traced, k+1, cs, spans)
			fresh++
			if err == nil {
				verified.Add(1)
			}
		case opReplay:
			err = w.replay(ctx, c, in, list, op, cs)
		case opUpload:
			err = w.upload(ctx, c, in, op, cs)
		}
		if err != nil {
			cs.fail("client %d op %d (%s): %v", k, i, op.kind, err)
		}
	}
}

// fresh runs one new job and fetches its colors; the job time runs from
// sending the job until the colors are in hand. A traced op also fetches
// the engine's per-phase trace after the clock stops.
func (w serveWorkload) fresh(ctx context.Context, c *client, in *serveInputs, i int, op serveOp,
	traced bool, track int, cs *clientState, spans *spanLog) error {
	t0 := time.Now()
	j, err := c.submit(ctx, w.jobBody(in, op.graph, op.seed))
	if err != nil {
		return err
	}
	t1 := time.Now()
	colors, err := c.colors(ctx, j.ID, op.binary)
	if err != nil {
		return err
	}
	t2 := time.Now()
	if j.Coalesced {
		return fmt.Errorf("job %s: a fresh job was coalesced", j.ID)
	}
	if err := checkColors(in.pool[op.graph], colors, nil, in.bound); err != nil {
		return fmt.Errorf("job %s: %w", j.ID, err)
	}
	jobS, postS := t2.Sub(t0).Seconds(), t1.Sub(t0).Seconds()
	queueS, runS := j.QueueMs/1e3, j.RunMs/1e3
	cs.jobS = append(cs.jobS, jobS)
	cs.rounds = append(cs.rounds, float64(j.Rounds))
	cs.queueS = append(cs.queueS, queueS)
	cs.runS = append(cs.runS, runS)
	cs.httpS = append(cs.httpS, postS-queueS-runS)
	if op.binary {
		cs.binS = append(cs.binS, t2.Sub(t1).Seconds())
	} else {
		cs.colorsS = append(cs.colorsS, t2.Sub(t1).Seconds())
	}
	done := freshDone{op: op, jobID: j.ID}
	cs.done[i] = done
	// The cross-check samples each client's latest jobs: older ones may
	// have left the server's retained set.
	cs.sampled = append(cs.sampled, done)
	if len(cs.sampled) > w.sample {
		cs.sampled = cs.sampled[1:]
	}
	if !traced {
		return nil
	}
	var rep distcolor.TraceReport
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+j.ID+"/trace", "", nil, http.StatusOK, &rep); err != nil {
		return err
	}
	root := spans.add(0, track, "fresh "+j.ID, t0, t2)
	post := spans.add(root, track, "POST /v1/jobs", t0, t1)
	spans.add(root, track, "GET /v1/jobs/{id}/colors", t1, t2)
	layers := map[string]float64{}
	engine := 0.0
	for i, p := range rep.Phases {
		s := float64(p.WallNs) / 1e9
		engine += s
		if name := layerOf(p.Phase); name != "" {
			layers[name] += s
		}
		// A phase's span runs from its first to its last charge, so the
		// extension phases of successive peel layers overlap: each gets a
		// track of its own, below the client's.
		if p.StartUnixNs > 0 {
			spans.add(post, 100*track+1+i, p.Phase, time.Unix(0, p.StartUnixNs), time.Unix(0, p.EndUnixNs))
		}
	}
	// The server's trace ends at the last ledger charge; the rest of the
	// run is its verification of the result.
	layers["seqcolor.verify_s"] += max(0, runS-engine)
	accounted := 0.0
	for _, name := range layerTimes {
		cs.perJob[name] = append(cs.perJob[name], layers[name])
		accounted += layers[name]
	}
	cs.accounts = append(cs.accounts, ratio(accounted, runS))
	return nil
}

// replay resubmits an earlier fresh job of this client; the server must
// answer from the retained job.
func (w serveWorkload) replay(ctx context.Context, c *client, in *serveInputs, list []serveOp, op serveOp, cs *clientState) error {
	orig, ok := cs.done[op.replay]
	if !ok {
		return fmt.Errorf("replay of op %d, which did not complete", op.replay)
	}
	t0 := time.Now()
	j, err := c.submit(ctx, w.jobBody(in, list[op.replay].graph, list[op.replay].seed))
	if err != nil {
		return err
	}
	cs.hitS = append(cs.hitS, time.Since(t0).Seconds())
	if !j.Coalesced || j.ID != orig.jobID {
		return fmt.Errorf("replay of job %s answered by job %s (coalesced %v)", orig.jobID, j.ID, j.Coalesced)
	}
	return nil
}

// upload posts a text edge-list graph.
func (w serveWorkload) upload(ctx context.Context, c *client, in *serveInputs, op serveOp, cs *clientState) error {
	var reply struct {
		ID string `json:"id"`
		N  int    `json:"n"`
		M  int    `json:"m"`
	}
	t0 := time.Now()
	if err := c.do(ctx, http.MethodPost, "/v1/graphs", "text/plain", in.bodies[op.body], http.StatusCreated, &reply); err != nil {
		return err
	}
	cs.uploadS = append(cs.uploadS, time.Since(t0).Seconds())
	if want := in.bodyDims[op.body]; reply.N != want[0] || reply.M != want[1] {
		return fmt.Errorf("upload %s: server has n=%d m=%d, sent n=%d m=%d", reply.ID, reply.N, reply.M, want[0], want[1])
	}
	return nil
}

// crossCheck re-fetches the sampled jobs' colors in both encodings and
// compares them with each other and with an in-process distcolor.Run on the
// same (graph, algorithm, seed).
func (w serveWorkload) crossCheck(ctx context.Context, c *client, in *serveInputs, all *clientState, o *outcome) {
	for _, s := range all.sampled {
		o.attempted++
		err := func() error {
			js, err := c.colors(ctx, s.jobID, false)
			if err != nil {
				return err
			}
			bin, err := c.colors(ctx, s.jobID, true)
			if err != nil {
				return err
			}
			if v := equalColors(js, bin); v >= 0 {
				return fmt.Errorf("JSON and binary colors differ at vertex %d", v)
			}
			col, err := distcolor.Run(ctx, in.pool[s.op.graph], w.algo, distcolor.WithSeed(s.op.seed))
			if err != nil {
				return fmt.Errorf("in-process run: %w", err)
			}
			if v := equalColors(js, col.Colors); v >= 0 {
				return fmt.Errorf("server and in-process colors differ at vertex %d", v)
			}
			return nil
		}()
		if err != nil {
			o.fail("cross-check of job %s: %v", s.jobID, err)
		}
	}
}

// coreOps returns the first coreJobs fresh ops of each client's list.
func (w serveWorkload) coreOps(seed uint64) []serveOp {
	var out []serveOp
	for k := 0; k < w.clients; k++ {
		n := 0
		for _, op := range w.ops(seed, k, 256) {
			if op.kind == opFresh && n < w.coreJobs {
				out = append(out, op)
				n++
			}
		}
	}
	return out
}

// coreStats re-runs the coreOps jobs in-process through core.Planar6, for
// the per-iteration statistics the server does not report, and checks
// that core gives the coloring distcolor.Run gives. The jobs are fixed by
// the op lists, so the counts are exact for a given seed.
func (w serveWorkload) coreStats(ctx context.Context, seed uint64, in *serveInputs, all *clientState, o *outcome) {
	st := &inprocState{perJob: map[string][]float64{}}
	for _, op := range w.coreOps(seed) {
		o.attempted++
		err := func() error {
			g := in.pool[op.graph]
			col, err := distcolor.Run(ctx, g, w.algo, distcolor.WithSeed(op.seed))
			if err != nil {
				return fmt.Errorf("in-process run: %w", err)
			}
			if err := checkColors(g, col.Colors, nil, in.bound); err != nil {
				return fmt.Errorf("in-process run: %w", err)
			}
			nw := local.NewShuffledNetwork(g, rand.New(rand.NewPCG(op.seed, idStream)))
			res, err := core.Planar6(ctx, nw, core.Config{})
			if err != nil {
				return fmt.Errorf("core.Planar6: %w", err)
			}
			if v := equalColors(res.Colors, col.Colors); v >= 0 {
				return fmt.Errorf("core.Planar6 and distcolor.Run disagree at vertex %d", v)
			}
			st.addIterations(res.Iterations)
			return nil
		}()
		if err != nil {
			o.fail("core re-run of graph %d, seed %d: %v", op.graph, op.seed, err)
		}
	}
	for name, xs := range st.perJob {
		all.perJob[name] = append(all.perJob[name], xs...)
	}
	o.metrics["core.happy_ratio"] = ratio(st.happy, st.alive)
}
