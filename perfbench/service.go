package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"runtime/pprof"
	"sync"
	"time"

	"ioatsim/internal/bench"
	"ioatsim/internal/serve"
	"ioatsim/internal/sim"
)

// The service workload: an in-process ioatd (serve.Server behind
// net/http on loopback) driven in a closed loop, because ioatd callers
// wait for their reply. Each client repeats a cycle of one cold job,
// fig3a at a fresh seed, which misses the point cache and simulates,
// then one warm job, which resubmits a request primed during set-up and
// so hits the cache. One cold job per warm one is the repeat that
// serve's TestWarmCacheRepeat and scripts/serve_smoke.sh make; no
// record of real ioatd traffic exists to choose another ratio from.
const (
	serviceWorkers = 2
	serviceClients = 2
	serviceScale   = 0.05
	// A batch is cyclesPerBatch cold-warm cycles per client; wall_s is
	// the median batch time.
	cyclesPerBatch = 4
	jobTimeout     = 60 * time.Second
)

// splitmix64 derives independent request seeds from the workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func deriveSeed(seed, n uint64) uint64 { return splitmix64(seed^splitmix64(n)) | 1 }

// warmRequests is the fixed warm set. The first is the golden
// configuration of fig3a, so set-up also checks the service's output
// against testdata/golden/.
func warmRequests(seed uint64) []bench.Request {
	ws := deriveSeed(seed, 0)
	return []bench.Request{
		{Runners: []string{"fig3a"}, Seed: 1, Scale: 0.05, Check: true},
		{Runners: []string{"fig6"}, Seed: ws, Scale: serviceScale, Parallel: 1},
		{Runners: []string{"extipc"}, Seed: ws, Scale: serviceScale, Parallel: 1},
		{Runners: []string{"fig7a", "ablpin"}, Seed: ws, Scale: serviceScale, Parallel: 1},
	}
}

// coldRequest is the n-th cold job: fig3a at a seed no other job uses.
func coldRequest(seed, n uint64) bench.Request {
	return bench.Request{Runners: []string{"fig3a"}, Seed: deriveSeed(seed, 1+n), Scale: serviceScale, Parallel: 1}
}

type service struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
	warm   []bench.Request
	refs   [][]serve.ResultJSON // per warm request, from set-up
	// batches counts the batches run so far; cold seeds derive from
	// it, so no two passes share a cold job.
	batches int
}

// reply is one job as its client saw it.
type reply struct {
	id      string
	status  int
	state   serve.State
	results []serve.ResultJSON
	start   time.Time // before the POST
	end     time.Time // after the last stream byte
}

func startService(seed uint64) (*service, error) {
	srv := serve.New(serve.Options{Workers: serviceWorkers})
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background()) // no job was admitted
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &service{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{
			Timeout:   jobTimeout,
			Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients, DisableCompression: true},
		},
		warm: warmRequests(seed),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	for i, req := range s.warm {
		r, err := s.submit(req)
		if err == nil && (r.status != http.StatusOK || r.state != serve.StateDone || len(r.results) != len(req.Runners)) {
			err = fmt.Errorf("priming %v: status %d, state %s, %d results", req.Runners, r.status, r.state, len(r.results))
		}
		if err == nil && i == 0 {
			err = checkGolden(checkoutRoot, req.Runners[0], r.results[0].Table)
		}
		if err != nil {
			return nil, errors.Join(err, s.close())
		}
		s.refs = append(s.refs, r.results)
	}
	return s, nil
}

// close stops the HTTP server, drains the job server and waits for both.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if e := <-s.served; !errors.Is(e, http.ErrServerClosed) {
		err = errors.Join(err, e)
	}
	s.client.CloseIdleConnections()
	return errors.Join(err, s.srv.Shutdown(ctx))
}

// submit posts an attached job and reads its NDJSON stream to the end.
func (s *service) submit(req bench.Request) (reply, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return reply{}, err
	}
	r := reply{start: time.Now()}
	resp, err := s.client.Post(s.url+"/v1/jobs?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	if resp.StatusCode == http.StatusOK {
		dec := json.NewDecoder(resp.Body)
		for {
			var rec serve.StreamRecord
			if err := dec.Decode(&rec); err == io.EOF {
				break
			} else if err != nil {
				return r, fmt.Errorf("reading job stream: %w", err)
			}
			r.id = rec.Job
			if rec.Result != nil {
				r.results = append(r.results, *rec.Result)
			}
			if rec.Done {
				r.state = rec.State
			}
		}
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return r, err
	}
	r.end = time.Now()
	return r, nil
}

// status fetches a finished job's server-side timestamps.
func (s *service) status(id string) (serve.Status, error) {
	var st serve.Status
	resp, err := s.client.Get(s.url + "/v1/jobs/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("job %s status: HTTP %d", id, resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// job is one timed job with its verdict.
type job struct {
	cold       bool
	id         string
	start, end time.Time // before the POST, after the last stream byte
	bad        error
	st         *serve.Status // traced passes only
	rejected   bool          // answered 429
}

// latency is the client-side job latency in ms.
func (j job) latency() float64 { return msSince(j.start, j.end) }

// check validates a reply: warm tables must equal the set-up reference
// byte for byte; a cold job must finish with the reference's columns
// and row count.
func (s *service) check(r reply, warm int) error {
	switch {
	case r.status == http.StatusTooManyRequests:
		return fmt.Errorf("job rejected with 429")
	case r.status != http.StatusOK:
		return fmt.Errorf("job answered HTTP %d", r.status)
	case r.state != serve.StateDone:
		return fmt.Errorf("job %s ended %s", r.id, r.state)
	}
	if warm >= 0 {
		ref := s.refs[warm]
		if len(r.results) != len(ref) {
			return fmt.Errorf("warm job %s: %d results, want %d", r.id, len(r.results), len(ref))
		}
		for i := range ref {
			if r.results[i].Table != ref[i].Table {
				return fmt.Errorf("warm job %s: %s table differs from set-up", r.id, ref[i].ID)
			}
		}
		return nil
	}
	ref := s.refs[0][0]
	if len(r.results) != 1 || len(r.results[0].Rows) != len(ref.Rows) ||
		!reflect.DeepEqual(r.results[0].Columns, ref.Columns) {
		return fmt.Errorf("cold job %s: result shape differs from fig3a", r.id)
	}
	return nil
}

// runJob submits and checks one job.
func (s *service) runJob(req bench.Request, warm int) job {
	r, err := s.submit(req)
	if err == nil {
		err = s.check(r, warm)
	}
	return job{
		cold: warm < 0, id: r.id, start: r.start, end: r.end, bad: err,
		rejected: r.status == http.StatusTooManyRequests,
	}
}

// recordSpans fetches the server-side timestamps of a traced batch's
// jobs, after its wall time has been taken so both passes send the
// same traffic, and records each job's span with queue, run and
// stream-tail children.
func (s *service) recordSpans(c runCfg, jobs []job, parent int) {
	for i := range jobs {
		j := &jobs[i]
		if j.bad != nil {
			continue
		}
		st, err := s.status(j.id)
		if err != nil || st.Started == nil || st.Finished == nil {
			j.bad = errors.Join(fmt.Errorf("job %s: no server timestamps", j.id), err)
			continue
		}
		j.st = &st
		kind := "warm"
		if j.cold {
			kind = "cold"
		}
		id := c.spans.add(parent, "job", j.start, j.end, map[string]string{"job": j.id, "kind": kind})
		c.spans.add(id, "queue", st.Created, *st.Started, nil)
		c.spans.add(id, "run", *st.Started, *st.Finished, nil)
		c.spans.add(id, "stream", *st.Finished, j.end, nil)
	}
}

// batch runs one closed-loop batch: every client runs its cycles and
// the batch ends when the last client's last reply has arrived. It
// returns the jobs and each cycle's latency in ms, from the cold job's
// POST to the warm job's last stream byte.
func (s *service) batch(seed uint64, b int) (jobs []job, cycles []float64) {
	perClient := make([][]job, serviceClients)
	var wg sync.WaitGroup
	for cl := 0; cl < serviceClients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for k := 0; k < cyclesPerBatch; k++ {
				n := uint64((b*serviceClients+cl)*cyclesPerBatch + k)
				w := (b + cl + k) % len(s.warm)
				perClient[cl] = append(perClient[cl],
					s.runJob(coldRequest(seed, n), -1),
					s.runJob(s.warm[w], w))
			}
		}(cl)
	}
	wg.Wait()
	for _, js := range perClient {
		for k := 0; k+1 < len(js); k += 2 {
			cycles = append(cycles, msSince(js[k].start, js[k+1].end))
		}
		jobs = append(jobs, js...)
	}
	return jobs, cycles
}

// servicePass is one closed-loop pass of whole batches.
type servicePass struct {
	jobs       []job
	cycles     []float64 // ms
	batchWalls []float64 // s
	batchCPUs  []float64 // process CPU s
	wall       time.Duration
	cpu        float64 // process CPU s
	executed   uint64
	// first0 is what batch 0, whose jobs the seed fixes, must repeat
	// exactly: its events and process switches, and the pending-set
	// high-water mark when it ended.
	first0     [3]uint64
	first0Jobs int
	hits, miss uint64
}

// runBatches runs at least one batch and starts another only while the
// last batch's duration still fits before deadline.
func (s *service) runBatches(c runCfg, deadline time.Time, name string) *servicePass {
	p := &servicePass{}
	root := c.spans.begin(0, name, map[string]string{"workload": c.workload})
	h0, m0 := s.srv.Cache().Stats()
	ev0 := sim.GlobalExecuted()
	start, cpuStart := time.Now(), cpuSeconds()
	for b := 0; ; b++ {
		if b > 0 && time.Now().Add(time.Duration(p.batchWalls[b-1]*1e9)).After(deadline) {
			break
		}
		s.batches++
		sp := c.spans.begin(root, "batch", nil)
		e0, w0 := sim.GlobalExecuted(), sim.GlobalProcSwitches()
		t0, cpu0 := time.Now(), cpuSeconds()
		jobs, cycles := s.batch(c.seed, s.batches-1)
		p.batchWalls = append(p.batchWalls, time.Since(t0).Seconds())
		p.batchCPUs = append(p.batchCPUs, cpuSeconds()-cpu0)
		c.spans.finish(sp)
		if b == 0 {
			p.first0 = [3]uint64{sim.GlobalExecuted() - e0, sim.GlobalProcSwitches() - w0, sim.GlobalPeakPending()}
			p.first0Jobs = len(jobs)
		}
		if c.spans != nil {
			s.recordSpans(c, jobs, sp)
		}
		p.jobs = append(p.jobs, jobs...)
		p.cycles = append(p.cycles, cycles...)
	}
	p.wall, p.cpu = time.Since(start), cpuSeconds()-cpuStart
	p.executed = sim.GlobalExecuted() - ev0
	h1, m1 := s.srv.Cache().Stats()
	p.hits, p.miss = h1-h0, m1-m0
	c.spans.finish(root)
	return p
}

// runService measures the service workload.
func runService(c runCfg) (*outcome, error) {
	o := newOutcome()
	sp := c.spans.begin(0, "service-setup", nil)
	s, err := startService(c.seed)
	if err != nil {
		return nil, err
	}
	c.spans.finish(sp)
	o.values["setup_s"] = endSetup()

	budget := c.seconds
	if c.trace {
		budget /= 2
	}
	untraced := c
	untraced.spans = nil
	p := s.runBatches(untraced, time.Now().Add(budget), "pass")
	passes := []*servicePass{p}
	var warmLat, coldLat []float64
	for _, j := range p.jobs {
		if j.cold {
			coldLat = append(coldLat, j.latency())
		} else {
			warmLat = append(warmLat, j.latency())
		}
	}
	o.values["cpu_s"] = median(p.batchCPUs)
	o.values["events_per_cpu_s"] = float64(p.executed) / p.cpu
	o.values["wall_s"] = median(p.batchWalls)
	o.values["events_per_s"] = float64(p.executed) / p.wall.Seconds()
	o.values["op_p50_ms"] = median(p.cycles)
	o.values["warm_job_p50_ms"] = quantile(warmLat, 0.5)
	o.values["warm_job_p90_ms"] = quantile(warmLat, 0.9)
	o.values["cold_job_p50_ms"] = quantile(coldLat, 0.5)
	o.values["cold_job_p90_ms"] = quantile(coldLat, 0.9)
	o.values["jobs_per_s"] = float64(len(p.jobs)) / p.wall.Seconds()
	o.values["sim.events"] = float64(p.first0[0])
	o.values["sim.proc_switches"] = float64(p.first0[1])
	o.values["sim.peak_pending"] = float64(p.first0[2])
	o.values["sweep.hits"] = float64(p.hits)
	o.values["sweep.misses"] = float64(p.miss)
	if p.hits+p.miss > 0 {
		o.values["sweep.hit_ratio"] = float64(p.hits) / float64(p.hits+p.miss)
	}
	o.info["op_samples"] = len(p.cycles)
	o.info["warm_samples"] = len(warmLat)
	o.info["cold_samples"] = len(coldLat)
	o.info["batches"] = len(p.batchWalls)

	if c.trace {
		tp, err := startTrace()
		if err != nil {
			return nil, errors.Join(err, s.close())
		}
		var q *servicePass
		pprof.Do(context.Background(), pprof.Labels("workload", c.workload), func(context.Context) {
			q = s.runBatches(c, time.Now().Add(budget), "traced-pass")
		})
		tag := fmt.Sprintf("%s-s%d", c.workload, c.seed)
		if err := tp.finish(c.out, tag, q.executed, o.values, o.info); err != nil {
			return nil, errors.Join(err, s.close())
		}
		o.values["trace.overhead"] = median(q.batchWalls)/median(p.batchWalls) - 1
		var queue, run, httpMS []float64
		for _, j := range q.jobs {
			if j.st == nil {
				continue
			}
			if j.cold {
				queue = append(queue, msSince(j.st.Created, *j.st.Started))
				run = append(run, msSince(*j.st.Started, *j.st.Finished))
			} else {
				httpMS = append(httpMS, j.latency()-msSince(j.st.Created, *j.st.Finished))
			}
		}
		o.values["serve.queue_wait_ms"] = median(queue)
		o.values["serve.run_ms"] = median(run)
		o.values["serve.http_ms"] = median(httpMS)
		passes = append(passes, q)
	}
	o.values["sweep.evictions"] = float64(s.srv.Cache().Evictions())
	if err := s.close(); err != nil {
		return nil, err
	}

	// Batch 0's counts must repeat across the runs of one commit and
	// seed; a change fails every job of that batch.
	store, err := openCheckStore(c, o)
	if err != nil {
		return nil, err
	}
	first0 := fmt.Sprintf("%d %d %d", p.first0[0], p.first0[1], p.first0[2])
	if !store.check("service/batch0", first0) {
		err := fmt.Errorf("batch 0 events, switches and peak pending %s differ from an earlier run at seed %d", first0, c.seed)
		for i := range p.jobs[:p.first0Jobs] {
			if p.jobs[i].bad == nil {
				p.jobs[i].bad = err
			}
		}
	}
	if err := store.save(); err != nil {
		return nil, err
	}
	for _, q := range passes {
		for _, j := range q.jobs {
			o.attempted++
			if j.rejected {
				o.values["serve.rejected"]++
			}
			if j.bad != nil {
				o.fail(j.bad.Error())
			}
		}
	}
	return o, nil
}
