package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hlfi/internal/core"
	"hlfi/internal/fault"
	"hlfi/internal/fleet"
)

// fleetLeaseTTL makes workers heartbeat every 150 ms (a third of the
// TTL), so the longer cells of this size exercise the heartbeat path;
// the 300 ms of slack keeps leases from expiring under host stalls.
const fleetLeaseTTL = 450 * time.Millisecond

// runFleetRound runs the grid through an in-process coordinator that
// checkpoints, as fiserve always does, and two in-process workers over
// loopback HTTP, then renders the study the way fiserve does: load the
// checkpoint back and resume the study from it. The timed interval ends
// with the render, where timed is called; the workers' exit after the
// done status is not timed.
func runFleetRound(w *workload, progs []*core.Program, seed int64, idx int, inst *instruments, dir string, timed func()) (*core.Study, map[core.CellKey]int, error) {
	shape := core.CheckpointShape{N: w.n, Seed: seed, Replay: "off", Compiled: "on", Adaptive: w.adaptive.Signature()}
	path := filepath.Join(dir, fmt.Sprintf("fleet-%d.jsonl", idx))
	writer, err := core.NewCheckpointWriterShape(path, shape)
	if err != nil {
		return nil, nil, err
	}
	defer os.Remove(path)
	defer writer.Close()
	cfg := fleet.Config{
		Programs: progs, N: w.n, Seed: seed, Adaptive: w.adaptive,
		LeaseTTL: fleetLeaseTTL, Checkpoint: writer,
	}
	var handler http.Handler
	if inst != nil {
		cfg.Events, cfg.Trace = inst.events, inst.trace
	}
	coord, err := fleet.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	coord.Start()
	defer coord.Stop()
	handler = coord.Handler()
	if inst != nil {
		handler = inst.fleet.wrap(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	served := make(chan struct{})
	go func() { _ = srv.Serve(ln); close(served) }()
	defer func() { _ = srv.Close(); <-served }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make(chan error, lanes)
	transports := make([]*http.Transport, lanes)
	for i := range transports {
		// One connection per worker: the load never has more than
		// lanes requests in flight.
		transports[i] = &http.Transport{MaxConnsPerHost: 1}
		client := &fleet.Client{
			Base:       "http://" + ln.Addr().String(),
			HTTP:       &http.Client{Transport: transports[i], Timeout: 30 * time.Second},
			JitterSeed: int64(i + 1),
		}
		name := fmt.Sprintf("w%d", i+1)
		go func() { errs <- fleet.RunWorker(ctx, fleet.WorkerConfig{Name: name, Client: client}) }()
	}
	waitWorkers := func() error {
		var first error
		for range transports {
			if err := <-errs; err != nil && first == nil {
				first = err
			}
		}
		for _, t := range transports {
			t.CloseIdleConnections()
		}
		return first
	}
	select {
	case <-coord.Done():
	case err := <-errs:
		// A worker ended before the study did: put its result back for
		// waitWorkers and stop the other.
		errs <- err
		cancel()
		werr := waitWorkers()
		if werr == nil {
			werr = fmt.Errorf("fleet worker exited before the study converged")
		}
		return nil, nil, werr
	}
	if err := writer.Close(); err != nil {
		return nil, nil, err
	}
	if !coord.CheckpointIntact() {
		return nil, nil, fmt.Errorf("fleet checkpoint detached by a write failure")
	}
	state, err := core.LoadCheckpointShape(path, shape)
	if err != nil {
		return nil, nil, err
	}
	st, err := core.RunStudy(core.StudyConfig{Programs: progs, N: w.n, Seed: seed, Adaptive: w.adaptive, Resume: state})
	timed()
	if err != nil {
		return nil, nil, err
	}
	if err := waitWorkers(); err != nil {
		return nil, nil, err
	}
	recs, err := checkpointRecords(path)
	if err != nil {
		return nil, nil, err
	}
	return st, recs, nil
}

// checkpointRecords counts the resolution records per cell in a
// checkpoint file, read line by line on the benchmark's side.
func checkpointRecords(path string) (map[core.CellKey]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs := map[core.CellKey]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var line struct {
			Type      string `json:"type"`
			Benchmark string `json:"benchmark"`
			Level     string `json:"level"`
			Category  string `json:"category"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("checkpoint %s: %w", path, err)
		}
		if line.Type != "cell" && line.Type != "skip" {
			continue
		}
		lv, err := fault.ParseLevel(line.Level)
		if err != nil {
			return nil, err
		}
		ct, err := fault.ParseCategory(line.Category)
		if err != nil {
			return nil, err
		}
		recs[core.CellKey{Prog: line.Benchmark, Level: lv, Category: ct}]++
	}
	return recs, sc.Err()
}

// fleetStats is the benchmark's timing middleware around the
// coordinator's protocol handler.
type fleetStats struct {
	mu       sync.Mutex
	ms       map[string][]float64 // per path, handler time in ms
	waits    int                  // lease replies telling a worker to wait
	idle     time.Duration        // the wait the coordinator asked for
	requests int
	sp       []handlerSpan
}

// handlerSpan is one protocol request as the middleware saw it.
type handlerSpan struct {
	path       string
	start, end time.Time
}

func newFleetStats() *fleetStats { return &fleetStats{ms: map[string][]float64{}} }

// recorder keeps a copy of the handler's reply for the wait count.
type recorder struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (r *recorder) Write(b []byte) (int, error) {
	r.body.Write(b)
	return r.ResponseWriter.Write(b)
}

func (fs *fleetStats) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rec := &recorder{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(rec, req)
		end := time.Now()
		var lease fleet.LeaseResponse
		isWait := req.URL.Path == "/lease" &&
			json.Unmarshal(rec.body.Bytes(), &lease) == nil && lease.Status == fleet.StatusWait
		fs.mu.Lock()
		defer fs.mu.Unlock()
		fs.requests++
		fs.ms[req.URL.Path] = append(fs.ms[req.URL.Path], float64(end.Sub(start))/1e6)
		fs.sp = append(fs.sp, handlerSpan{path: req.URL.Path, start: start, end: end})
		if isWait {
			fs.waits++
			fs.idle += time.Duration(lease.RetryAfterMS) * time.Millisecond
		}
	})
}
