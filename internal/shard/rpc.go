package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"uagpnm/internal/nodeset"
	"uagpnm/internal/obs"
	"uagpnm/internal/shortest"
)

// TransportError is the error an RPC shard returns when the worker
// cannot be reached or answers with an error after retries. The
// coordinator treats it as a shard loss and runs failover (rebuild the
// lost partitions on survivors or spares); only when no capacity
// survives does it poison the substrate with ErrSubstrateLost.
// errors.Is(err, ErrSubstrateLost) and errors.As(err, &te) both work
// on what callers observe from a terminal loss.
type TransportError struct {
	Addr string
	Op   string
	Err  error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("shard %s: %s: %v", e.Addr, e.Op, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// RPC fronts one shard worker process (cmd/gpnm-shard) over HTTP.
//
// Reads cache aggressively: Ball is served from full-horizon intra
// rows fetched once per (partition, source, direction) and kept
// until a flush reports that their source moved. The coordinator's
// query patterns (overlay Dijkstras, stitched rows, the matching
// fixpoint) re-read the same rows many times per epoch, so the row cache
// turns per-query RPCs into per-row ones — and the bulk Rows path plus
// the /ops warm piggyback turn per-row RPCs into per-phase ones. A
// cached Row is the decoded value itself, immutable, handed to every
// reader without copying.
//
// Invalidation is exact: an intra row depends only on its partition's
// subgraph, and the affected set an engine returns for an op names both
// endpoints of every pair whose distance moved (the paper's Aff_N), so
// a successful flush drops the two rows of each source its answer
// names and nothing else. Every path that cannot vouch for the cache
// that way — a failed or malformed flush, Build, Rebuild,
// EnsureHorizon — drops it wholesale.
//
// A hit takes no lock (rowCache). Concurrent misses on one key fetch
// once (singleflight), always through /rows: a first miss is a
// one-element bulk call. The cache is safe for the engine's concurrent
// read epochs.
type RPC struct {
	base string
	hc   *http.Client
	obs  *obs.Registry // per-endpoint latency/bytes/retry/failure telemetry

	rows   rowCache
	mu     sync.Mutex          // serialises the cache's writers; guards flight
	flight map[RowReq]*rowCall // keyed with Have clear

	// Row-plane counters: rows fetched by a bulk plan (or installed by a
	// warm piggyback), rows fetched by a first miss, held warm rows the
	// worker vouched for, and rows dropped because a flush moved them.
	prefetched, missed, unchanged, invalidated *obs.Counter
}

// rowCache holds the rows a client has fetched, in one table per
// partition and direction indexed by local source id — the shape of the
// coordinator's own rowTable, and for its reason: a hit is the stitched
// read path's innermost step, taken from every pool worker at once, and
// here it is two atomic loads where a locked map had the workers trade
// the lock's cache line (BenchmarkRPCBall). Writers — installs and drops,
// serialised by RPC.mu — store into a slot in place, and publish a grown
// copy of the tables when an install lies beyond them. Only installs
// grow, and only installs run beside readers (drops come with a flush
// or a rebuild, between read epochs), so a reader still holding the copy
// from before sees at worst a miss, which the fetch path rechecks under
// the lock.
type rowCache struct {
	parts atomic.Pointer[[]partRows]
}

// partRows is one partition's forward and reverse table.
type partRows [2][]atomic.Pointer[Row]

func dirOf(reverse bool) int {
	if reverse {
		return 1
	}
	return 0
}

// get returns the held row, nil on a miss.
func (c *rowCache) get(rq RowReq) *Row {
	parts := c.parts.Load()
	if parts == nil || uint(rq.Part) >= uint(len(*parts)) {
		return nil
	}
	slots := (*parts)[rq.Part][dirOf(rq.Reverse)]
	if int(rq.Src) >= len(slots) {
		return nil
	}
	return slots[rq.Src].Load()
}

// put installs row (nil drops what is held) under the writers' lock.
func (c *rowCache) put(rq RowReq, row *Row) {
	if rq.Part < 0 {
		return
	}
	var parts []partRows
	if p := c.parts.Load(); p != nil {
		parts = *p
	}
	dir := dirOf(rq.Reverse)
	if rq.Part >= len(parts) || int(rq.Src) >= len(parts[rq.Part][dir]) {
		if row == nil {
			return
		}
		grown := make([]partRows, max(len(parts), rq.Part+1))
		copy(grown, parts)
		old := grown[rq.Part][dir]
		slots := make([]atomic.Pointer[Row], max(2*len(old), int(rq.Src)+1))
		for i := range old {
			slots[i].Store(old[i].Load())
		}
		grown[rq.Part][dir] = slots
		c.parts.Store(&grown)
		parts = grown
	}
	parts[rq.Part][dir][rq.Src].Store(row)
}

// reset drops everything.
func (c *rowCache) reset() { c.parts.Store(nil) }

// each visits every held row.
func (c *rowCache) each(fn func(RowReq, *Row)) {
	parts := c.parts.Load()
	if parts == nil {
		return
	}
	for part, tables := range *parts {
		for dir, slots := range tables {
			for src := range slots {
				if row := slots[src].Load(); row != nil {
					fn(RowReq{Part: part, Src: uint32(src), Reverse: dir == 1}, row)
				}
			}
		}
	}
}

// rowCall is one in-flight row fetch: concurrent misses on the same
// key wait on done instead of fetching again.
type rowCall struct {
	done chan struct{}
	row  Row
	err  error
}

// ParseAddrs splits a comma-separated -shards flag value into worker
// addresses, trimming whitespace and dropping empties — the one parser
// every binary taking the flag shares.
func ParseAddrs(spec string) []string {
	var addrs []string
	for _, a := range strings.Split(spec, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// Dial returns a client for the worker at addr ("host:port" or a full
// http:// URL). It performs no I/O; the first call does. Telemetry
// goes to obs.Default; use DialWith to isolate it.
func Dial(addr string) *RPC { return DialWith(addr, obs.Default) }

// DialWith is Dial with the telemetry registry chosen by the caller:
// every remote call records a per-endpoint latency histogram
// (gpnm_rpc_seconds), bytes in/out (gpnm_rpc_bytes_total) and
// retry/failure counters into reg.
func DialWith(addr string, reg *obs.Registry) *RPC {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	if reg == nil {
		reg = obs.Default
	}
	return &RPC{
		base: base,
		// Per-request deadlines are set in post(); the transport is tuned
		// for the engine's bulk fan-out. The zero-value transport keeps
		// only 2 idle connections per host, so a parallel phase (affected
		// fans, row prefetch, concurrent stitched reads) would re-dial TCP
		// for every call beyond the pair; sizing the idle pool past the
		// worker-pool widths in use keeps the fan on warm connections.
		hc: &http.Client{Transport: &http.Transport{
			DialContext: (&net.Dialer{
				Timeout:   10 * time.Second,
				KeepAlive: 30 * time.Second,
			}).DialContext,
			MaxIdleConns:          256,
			MaxIdleConnsPerHost:   64,
			IdleConnTimeout:       90 * time.Second,
			TLSHandshakeTimeout:   10 * time.Second,
			ExpectContinueTimeout: time.Second,
		}},
		obs:    reg,
		flight: make(map[RowReq]*rowCall),

		prefetched:  reg.Counter("gpnm_rpc_rows_prefetched_total"),
		missed:      reg.Counter("gpnm_rpc_rows_missed_total"),
		unchanged:   reg.Counter("gpnm_rpc_rows_unchanged_total"),
		invalidated: reg.Counter("gpnm_rpc_rows_invalidated_total"),
	}
}

// reqTimeout picks the deadline for one request. Reads and op streams
// are bounded snugly; /build runs a full remote intra-engine rebuild —
// exactly the superlinear work sharding exists to spread — so it gets
// room to finish on sharding-scale graphs instead of being declared
// dead (and pointlessly restarted) by a blanket client timeout.
func reqTimeout(path string) time.Duration {
	switch path {
	case "/build", "/horizon":
		return 4 * time.Hour
	default:
		return 5 * time.Minute
	}
}

// Addr returns the worker's base URL.
func (r *RPC) Addr() string { return r.base }

// Remote reports true: this shard needs the full op stream (replica
// maintenance) and serves Affected off its replica.
func (r *RPC) Remote() bool { return true }

// post sends one JSON request, retrying transient transport failures,
// and returns the response body for the caller to decode. Worker-side
// errors (non-2xx) are not retried — they signal state divergence, not
// a flaky network. Retrying an /ops whose response was lost is safe: the
// stream is epoch-fenced, so a worker that already applied the epoch
// answers its recorded response instead of re-applying.
func (r *RPC) post(op, path string, in interface{}) (data []byte, err error) {
	// Per-endpoint telemetry: one latency observation per call (retries
	// included — the coordinator waits for the whole thing), bytes as
	// they cross the wire, failure counted once per failed call.
	start := time.Now()
	defer func() {
		r.obs.Histogram("gpnm_rpc_seconds", "endpoint", path).Observe(time.Since(start))
		if err != nil {
			r.obs.Counter("gpnm_rpc_failures_total", "endpoint", path).Inc()
		}
	}()
	body, err := json.Marshal(in)
	if err != nil {
		return nil, &TransportError{Addr: r.base, Op: op, Err: err}
	}
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			r.obs.Counter("gpnm_rpc_retries_total", "endpoint", path).Inc()
			time.Sleep(time.Duration(attempt) * 100 * time.Millisecond)
		}
		ctx, cancel := context.WithTimeout(context.Background(), reqTimeout(path))
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+path, bytes.NewReader(body))
		if err != nil {
			cancel()
			return nil, &TransportError{Addr: r.base, Op: op, Err: err}
		}
		req.Header.Set("Content-Type", "application/json")
		r.obs.Counter("gpnm_rpc_bytes_total", "endpoint", path, "direction", "out").Add(uint64(len(body)))
		resp, err := r.hc.Do(req)
		if err != nil {
			cancel()
			last = err
			continue
		}
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		r.obs.Counter("gpnm_rpc_bytes_total", "endpoint", path, "direction", "in").Add(uint64(len(data)))
		if err != nil {
			last = err
			continue
		}
		if resp.StatusCode/100 != 2 {
			return nil, &TransportError{Addr: r.base, Op: op,
				Err: fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))}
		}
		return data, nil
	}
	return nil, &TransportError{Addr: r.base, Op: op, Err: last}
}

// badAnswer reports a 2xx body the client could not accept —
// undecodable, or not shaped like its request — as the failed call and
// shard loss it is.
func (r *RPC) badAnswer(op string, err error) error {
	r.obs.Counter("gpnm_rpc_failures_total", "endpoint", "/"+op).Inc()
	return &TransportError{Addr: r.base, Op: op, Err: err}
}

func (r *RPC) dropRows() {
	r.mu.Lock()
	r.rows.reset()
	r.mu.Unlock()
}

// Cached returns the rows the client currently holds, by request — the
// snapshot the stale-row suites compare against a from-scratch build.
// Only tests read it, but one of them is internal/partition's
// CheckHeldShardRows, which a test-only file of this package cannot
// reach; so it stays exported.
func (r *RPC) Cached() map[RowReq]Row {
	held := make(map[RowReq]Row)
	r.rows.each(func(rq RowReq, row *Row) { held[rq] = *row })
	return held
}

// Ping probes the worker's /healthz with a short bounded GET and no
// retries — the failover controller calls it to separate dead workers
// from transient faults, so it must answer fast either way.
func (r *RPC) Ping() (err error) {
	start := time.Now()
	defer func() {
		r.obs.Histogram("gpnm_rpc_seconds", "endpoint", "/healthz").Observe(time.Since(start))
		if err != nil {
			r.obs.Counter("gpnm_rpc_failures_total", "endpoint", "/healthz").Inc()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/healthz", nil)
	if err != nil {
		return &TransportError{Addr: r.base, Op: "ping", Err: err}
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return &TransportError{Addr: r.base, Op: "ping", Err: err}
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return &TransportError{Addr: r.base, Op: "ping",
			Err: fmt.Errorf("HTTP %d", resp.StatusCode)}
	}
	return nil
}

// Build ships the coordinator's snapshots — the owned partitions'
// subgraphs plus the full data-graph adjacency — and blocks until the
// worker has built its intra engines.
func (r *RPC) Build(cfg Config, index int, owned []int, src Source) error {
	req := buildRequest{Config: cfg, Index: index, Graph: src.GraphSnapshot()}
	for _, p := range owned {
		req.Parts = append(req.Parts, src.PartSnapshot(p))
	}
	if _, err := r.post("build", "/build", req); err != nil {
		return err
	}
	r.dropRows()
	return nil
}

// Rebuild ships additional partitions' snapshots for the worker to
// build on top of its existing state — the failover path for survivors
// absorbing a dead shard's partitions. The worker keeps its replica,
// its other engines and its op-stream fence.
func (r *RPC) Rebuild(cfg Config, index int, added []int, src Source) error {
	req := rebuildRequest{Config: cfg, Index: index}
	for _, p := range added {
		req.Parts = append(req.Parts, src.PartSnapshot(p))
	}
	if _, err := r.post("rebuild", "/rebuild", req); err != nil {
		return err
	}
	r.dropRows()
	return nil
}

// EnsureHorizon widens the worker's engines to cover bound k.
func (r *RPC) EnsureHorizon(k int) error {
	if _, err := r.post("horizon", "/horizon", map[string]int{"k": k}); err != nil {
		return err
	}
	r.dropRows()
	return nil
}

// row returns the cached full-horizon intra row, fetching on a miss —
// a one-element /rows call under the same singleflight as every bulk
// fetch, so a read fan that converges on one hot row costs one RPC, not
// one per goroutine. First-miss fetches count as
// gpnm_rpc_rows_missed_total — the planner's job is to keep this near
// zero.
func (r *RPC) row(part int, src uint32, reverse bool) (*Row, error) {
	rq := RowReq{Part: part, Src: src, Reverse: reverse}
	if row := r.rows.get(rq); row != nil {
		return row, nil
	}
	rows, err := r.cachedRows([]RowReq{rq}, r.missed)
	if err != nil {
		return nil, err
	}
	return &rows[0], nil
}

// Rows answers many rows in one call, aligned with reqs: cached rows
// are served locally, rows someone else is already fetching are
// awaited (singleflight), and every remaining miss crosses the wire in
// ONE /rows POST and installs in the cache, so a bulk prefetch warms
// every later Ball on the same keys. The rows returned are the
// cached values themselves.
func (r *RPC) Rows(reqs []RowReq) ([]Row, error) {
	return r.cachedRows(reqs, r.prefetched)
}

// cachedRows is the one fetch path behind Rows and row; fetched counts
// the rows this call brought over the wire.
func (r *RPC) cachedRows(reqs []RowReq, fetched *obs.Counter) ([]Row, error) {
	out := make([]Row, len(reqs))
	var miss []int
	for i, rq := range reqs {
		if row := r.rows.get(rq); row != nil {
			out[i] = *row
		} else {
			miss = append(miss, i)
		}
	}
	if len(miss) == 0 {
		return out, nil
	}

	type waiter struct {
		i int
		c *rowCall
	}
	var waits []waiter
	var fetch []RowReq
	var fetchIdx []int
	r.mu.Lock()
	for _, i := range miss {
		rq := reqs[i]
		if row := r.rows.get(rq); row != nil { // installed since the lock-free pass
			out[i] = *row
			continue
		}
		if c, ok := r.flight[rq]; ok {
			// In flight — ours (a duplicate earlier in reqs) or another
			// goroutine's; either way the fetch resolves it.
			waits = append(waits, waiter{i, c})
			continue
		}
		r.flight[rq] = &rowCall{done: make(chan struct{})}
		fetch = append(fetch, rq)
		fetchIdx = append(fetchIdx, i)
	}
	r.mu.Unlock()

	if len(fetch) > 0 {
		rows, err := r.fetchRows(fetch)
		r.mu.Lock()
		for k, rq := range fetch {
			c := r.flight[rq]
			delete(r.flight, rq)
			if err == nil {
				row := rows[k] // its own allocation: a pointer into rows would pin every header fetched with it
				r.rows.put(rq, &row)
				c.row = row
			}
			c.err = err
			close(c.done)
		}
		r.mu.Unlock()
		if err != nil {
			return nil, err
		}
		fetched.Add(uint64(len(fetch)))
		for k, i := range fetchIdx {
			out[i] = rows[k]
		}
	}
	for _, w := range waits {
		<-w.c.done
		if w.c.err != nil {
			return nil, w.c.err
		}
		out[w.i] = w.c.row
	}
	return out, nil
}

// fetchRows is one /rows round trip: every request answered with its
// row, or the whole call fails.
func (r *RPC) fetchRows(fetch []RowReq) ([]Row, error) {
	data, err := r.post("rows", "/rows", map[string]interface{}{"reqs": fetch})
	if err != nil {
		return nil, err
	}
	answers, err := decodeRows(data)
	if err != nil {
		return nil, r.badAnswer("rows", err)
	}
	if len(answers) != len(fetch) {
		return nil, r.badAnswer("rows", fmt.Errorf("worker answered %d rows for %d requests", len(answers), len(fetch)))
	}
	rows := make([]Row, len(fetch))
	for k, a := range answers {
		if a.state != rowFull {
			return nil, r.badAnswer("rows", fmt.Errorf("partition %d not owned by this worker", fetch[k].Part))
		}
		rows[k] = a.row
	}
	return rows, nil
}

// Ball visits the intra ball of src, nearest layer first: a prefix of
// the cached full-horizon row.
func (r *RPC) Ball(part int, src uint32, maxD int, reverse bool, fn func(local uint32, d shortest.Dist) bool) error {
	if maxD < 0 {
		return nil
	}
	row, err := r.row(part, src, reverse)
	if err != nil {
		return err
	}
	row.Visit(maxD, fn)
	return nil
}

// ApplyOps streams one ordered, epoch-fenced op batch to the worker
// and returns the per-op affected sets of the partitions this worker
// owns. A worker that already applied this epoch (the response was
// lost, or a failover retry re-sent the flush) answers its recorded
// sets instead of re-applying.
//
// Cache discipline: the answer is validated whole before the cache is
// touched. On success exactly the rows it names are dropped — both
// directions of every source in an op's affected set, for they are the
// endpoints of every pair that moved; any other held row is word for
// word what the worker would answer now. The coordinator's warm demand
// rides the same round trip with the requests whose row the client
// holds marked Have: the worker computes the others from its post-apply
// state, and the marked ones too when its affected sets for this flush
// name their source, and answers one word for the rest — so the overlay
// reconciliation that follows the flush starts with a warm cache and
// only what changed crossed the wire. On any failure — transport, or an
// answer that is undecodable or not shaped like the request — the cache
// drops wholesale: the worker may have applied a prefix, or everything,
// and nothing says which rows moved.
func (r *RPC) ApplyOps(epoch uint64, ops []Op, warm []RowReq) ([][]uint32, error) {
	send := slices.Clone(warm)
	for i, rq := range warm {
		send[i].Have = r.rows.get(rq) != nil
	}

	resp, err := r.flush(epoch, ops, send)
	if err != nil {
		r.dropRows()
		return nil, err
	}
	dropped, warmed, kept := 0, 0, 0
	r.mu.Lock()
	for i, op := range ops {
		for _, l := range resp.aff[i] {
			for _, reverse := range [2]bool{false, true} {
				rq := RowReq{Part: op.Part, Src: l, Reverse: reverse}
				if r.rows.get(rq) != nil {
					r.rows.put(rq, nil)
					dropped++
				}
			}
		}
	}
	for k, a := range resp.rows {
		switch a.state {
		case rowFull:
			row := a.row // its own allocation, as in cachedRows
			r.rows.put(warm[k], &row)
			warmed++
		case rowUnchanged:
			kept++
		default:
			r.rows.put(warm[k], nil) // reassigned mid-flight; the next read routes afresh
		}
	}
	r.mu.Unlock()
	r.invalidated.Add(uint64(dropped))
	r.prefetched.Add(uint64(warmed))
	r.unchanged.Add(uint64(kept))
	return resp.aff, nil
}

// flush is one /ops round trip, answered in the shape of its request:
// one affected set per op, one row answer per warm request, unchanged
// only where the request said Have.
func (r *RPC) flush(epoch uint64, ops []Op, send []RowReq) (opsResponse, error) {
	data, err := r.post("ops", "/ops", map[string]interface{}{"epoch": epoch, "ops": ops, "warm": send})
	if err != nil {
		return opsResponse{}, err
	}
	resp, err := decodeOpsResponse(data)
	switch {
	case err != nil:
	case len(resp.aff) != len(ops):
		err = fmt.Errorf("worker answered %d affected sets for %d ops", len(resp.aff), len(ops))
	case len(resp.rows) != len(send):
		err = fmt.Errorf("worker answered %d warm rows for %d requests", len(resp.rows), len(send))
	default:
		for k, a := range resp.rows {
			if a.state == rowUnchanged && !send[k].Have {
				err = fmt.Errorf("worker answered unchanged for a row (partition %d, source %d) the client does not hold", send[k].Part, send[k].Src)
				break
			}
		}
	}
	if err != nil {
		return opsResponse{}, r.badAnswer("ops", err)
	}
	return resp, nil
}

// Affected computes conservative balls against the worker's data-graph
// replica.
func (r *RPC) Affected(reqs []AffectedReq) ([]nodeset.Set, error) {
	data, err := r.post("affected", "/affected", map[string]interface{}{"reqs": reqs})
	if err != nil {
		return nil, err
	}
	sets, err := decodeSets[nodeset.Set](data)
	if err != nil {
		return nil, r.badAnswer("affected", err)
	}
	if len(sets) != len(reqs) {
		return nil, r.badAnswer("affected", fmt.Errorf("worker answered %d sets for %d requests", len(sets), len(reqs)))
	}
	return sets, nil
}

// Close drops cached rows and idle connections; the worker process
// stays up for the next coordinator.
func (r *RPC) Close() error {
	r.dropRows()
	r.hc.CloseIdleConnections()
	return nil
}

var _ Shard = (*RPC)(nil)
