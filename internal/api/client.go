package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"uagpnm/internal/core"
	"uagpnm/internal/graph"
	"uagpnm/internal/hub"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/obs"
	"uagpnm/internal/pattern"
	"uagpnm/internal/shard"
	"uagpnm/internal/simulation"
)

// Error is a non-2xx answer from the server, decoded from the uniform
// error envelope. Unwrap maps the machine-readable code back onto the
// sentinel errors, so errors.Is(err, hub.ErrUnknownPattern) and
// errors.Is(err, shard.ErrSubstrateLost) work on the remote client
// exactly as they do on the in-process hub.
type Error struct {
	Status  int
	Code    string
	Message string
}

func (e *Error) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("api: %s (HTTP %d, %s)", e.Message, e.Status, e.Code)
	}
	return fmt.Sprintf("api: %s (HTTP %d)", e.Message, e.Status)
}

// Unwrap surfaces the sentinel matching the wire code.
func (e *Error) Unwrap() error {
	switch e.Code {
	case CodeUnknownPattern:
		return hub.ErrUnknownPattern
	case CodeSubstrateLost:
		return shard.ErrSubstrateLost
	}
	return nil
}

// Client speaks the /v1 protocol to a remote hub: the same Service
// surface as the in-process hub, served by a gpnm-serve process (or any
// uagpnm.NewHandler handler), with results equal to the in-process
// hub's batch for batch. The public package re-exports it as
// uagpnm.Client, returned by uagpnm.Dial. Safe for concurrent use.
//
// Differences from the in-process hub worth knowing: Register leaves
// ownership of the pattern with the caller (it travels by value over
// the wire), and Snapshot's returned pattern is rebuilt against a
// client-local label table — names, bounds and node ids are preserved,
// label ids are not comparable across processes.
type Client struct {
	base string
	hc   *http.Client
	// pollChunk bounds the server-side wait of one long-poll round;
	// WaitDeltas loops rounds until its context expires.
	pollChunk time.Duration
}

// Dial returns a client for the hub server at addr ("host:port" or a
// full http:// URL) after verifying it answers /v1/healthz. A server
// that reports a lost substrate fails the dial — it is draining and
// will never answer a query again.
func Dial(ctx context.Context, addr string) (*Client, error) {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	c := &Client{base: base, hc: &http.Client{}, pollChunk: 30 * time.Second}
	pingCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	var health HealthBody
	if err := c.do(pingCtx, http.MethodGet, "/v1/healthz", nil, &health); err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return c, nil
}

// Addr returns the server's base URL.
func (c *Client) Addr() string { return c.base }

// do is one JSON request/response round trip, never retried: non-2xx
// answers decode into *Error (codes mapped to sentinels) and transport
// failures return as-is, because an apply whose response was lost may
// have committed and must not be re-sent. A request that meets a shard
// repair is not refused: it waits on the hub's lock and is served when
// the repair ends.
func (c *Client) do(ctx context.Context, method, path string, in, out interface{}) error {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("api: encoding %s %s: %w", method, path, err)
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("api: %s %s: %w", method, path, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("api: %s %s: %w", method, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("api: %s %s: reading response: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		var eb ErrorBody
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			return &Error{Status: resp.StatusCode, Code: eb.Code, Message: eb.Error}
		}
		return &Error{Status: resp.StatusCode, Message: strings.TrimSpace(string(data))}
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("api: %s %s: decoding response: %w", method, path, err)
		}
	}
	return nil
}

// Register registers p as a standing query on the remote hub and
// returns its id. The pattern travels in the typed wire form, so
// duplicate display names and tombstoned ids survive; the caller keeps
// ownership of p (unlike the in-process hub, which takes it over).
func (c *Client) Register(ctx context.Context, p *pattern.Graph) (hub.PatternID, error) {
	var res ResultBody
	body := EncodePattern(p)
	if err := c.do(ctx, http.MethodPost, "/v1/patterns", RegisterRequest{Graph: &body}, &res); err != nil {
		return 0, err
	}
	return hub.PatternID(res.ID), nil
}

// Unregister removes a standing query.
func (c *Client) Unregister(ctx context.Context, id hub.PatternID) error {
	return c.do(ctx, http.MethodDelete, c.patternPath(id, ""), nil, &UnregisterResponse{})
}

func (c *Client) patternPath(id hub.PatternID, suffix string) string {
	return "/v1/patterns/" + strconv.FormatUint(uint64(id), 10) + suffix
}

// ApplyBatch applies one typed update batch and returns the per-pattern
// deltas plus the batch's shared-work stats, exactly as the in-process
// hub would. Do not blind-retry on transport errors: the batch may have
// applied before the response was lost, and re-applying it would
// double-mutate the graph.
func (c *Client) ApplyBatch(ctx context.Context, b hub.Batch) ([]hub.Delta, hub.BatchStats, error) {
	req := ApplyRequest{Updates: EncodeUpdates(b.D)}
	if len(b.P) > 0 {
		req.Patterns = make(map[string][]Update, len(b.P))
		for id, us := range b.P {
			req.Patterns[strconv.FormatUint(uint64(id), 10)] = EncodeUpdates(us)
		}
	}
	var resp ApplyResponse
	if err := c.do(ctx, http.MethodPost, "/v1/apply", req, &resp); err != nil {
		return nil, hub.BatchStats{}, err
	}
	deltas := make([]hub.Delta, len(resp.Deltas))
	for i, d := range resp.Deltas {
		deltas[i] = d.Decode()
	}
	return deltas, resp.Stats.Decode(), nil
}

// Result returns the (BGS-projected) node matching result for pattern
// node u of standing query id. Each call fetches the query's full
// result body; callers reading many nodes of one pattern should take
// one Snapshot and index the match locally instead of looping Result.
func (c *Client) Result(ctx context.Context, id hub.PatternID, u pattern.NodeID) (nodeset.Set, error) {
	var res ResultBody
	if err := c.do(ctx, http.MethodGet, c.patternPath(id, ""), nil, &res); err != nil {
		return nil, err
	}
	for _, n := range res.Nodes {
		if n.Node == u {
			return nodeset.Set(n.Matches), nil
		}
	}
	return nil, nil // unknown/dead pattern node: empty, like Match.Nodes
}

// Snapshot returns a mutually consistent (pattern, match, seq) view of
// one standing query, reconstructed from one wire round trip. The
// pattern is materialised against a fresh label table (label names are
// preserved; ids are client-local) and the match carries the raw
// simulation images, so Total/Nodes behave exactly as on the hub.
func (c *Client) Snapshot(ctx context.Context, id hub.PatternID) (*pattern.Graph, *simulation.Match, uint64, error) {
	var snap SnapshotBody
	if err := c.do(ctx, http.MethodGet, c.patternPath(id, "/snapshot"), nil, &snap); err != nil {
		return nil, nil, 0, err
	}
	p, err := snap.Pattern.Materialise(graph.NewLabels())
	if err != nil {
		return nil, nil, 0, fmt.Errorf("api: snapshot pattern: %w", err)
	}
	sims := make(map[pattern.NodeID]nodeset.Set, len(snap.Nodes))
	for _, n := range snap.Nodes {
		sims[n.Node] = nodeset.Set(n.Sim)
	}
	m := simulation.MatchFromSets(p, func(u pattern.NodeID) nodeset.Set { return sims[u] })
	return p, m, snap.Seq, nil
}

// WaitDeltas long-polls standing query id for deltas with Seq > since,
// blocking until at least one exists, ctx expires (returning ctx's
// error), or the query is unregistered (ErrUnknownPattern). resync
// reports that the subscriber is further behind than the server's
// bounded history reaches and must refetch the full result. The wait is
// implemented as repeated bounded server polls, so it survives
// intermediaries that cap request durations.
func (c *Client) WaitDeltas(ctx context.Context, id hub.PatternID, since uint64) ([]hub.Delta, bool, error) {
	for {
		chunk := c.pollChunk
		if dl, ok := ctx.Deadline(); ok {
			if rem := time.Until(dl); rem < chunk {
				chunk = rem
			}
		}
		if chunk <= 0 {
			// The wall clock is past the deadline, but ctx's own timer may
			// not have fired yet: ctx.Err() can still be nil here, and nil
			// would read as "no news" to a subscriber loop.
			if err := ctx.Err(); err != nil {
				return nil, false, err
			}
			return nil, false, context.DeadlineExceeded
		}
		// Clamp after rounding: a sub-0.5ms remainder would round to the
		// "0s" the server rejects, masking a plain deadline as a 400.
		chunk = chunk.Round(time.Millisecond)
		if chunk < time.Millisecond {
			chunk = time.Millisecond
		}
		path := c.patternPath(id, "/deltas") +
			"?since=" + strconv.FormatUint(since, 10) +
			"&timeout=" + chunk.String()
		var resp DeltasResponse
		if err := c.do(ctx, http.MethodGet, path, nil, &resp); err != nil {
			return nil, false, err
		}
		if resp.Resync {
			return nil, true, nil
		}
		if len(resp.Deltas) > 0 {
			deltas := make([]hub.Delta, len(resp.Deltas))
			for i, d := range resp.Deltas {
				deltas[i] = d.Decode()
			}
			return deltas, false, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
	}
}

// Stats returns the per-pattern pass statistics of standing query id's
// last amendment (all zero before the first batch after registration).
func (c *Client) Stats(ctx context.Context, id hub.PatternID) (core.QueryStats, error) {
	var body QueryStatsBody
	if err := c.do(ctx, http.MethodGet, c.patternPath(id, "/stats"), nil, &body); err != nil {
		return core.QueryStats{}, err
	}
	return body.Decode(), nil
}

// Traces returns the server's retained per-batch phase traces, oldest
// first; n > 0 caps the result to the most recent n.
func (c *Client) Traces(ctx context.Context, n int) ([]obs.Trace, error) {
	path := "/v1/trace"
	if n > 0 {
		path += "?n=" + strconv.Itoa(n)
	}
	var resp TracesResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &resp); err != nil {
		return nil, err
	}
	return resp.Traces, nil
}

// LastTrace returns the phase trace of the server's most recent batch
// (ok=false before the first batch).
func (c *Client) LastTrace(ctx context.Context) (obs.Trace, bool, error) {
	traces, err := c.Traces(ctx, 1)
	if err != nil || len(traces) == 0 {
		return obs.Trace{}, false, err
	}
	return traces[len(traces)-1], true, nil
}

// Close releases idle connections; the server is unaffected.
func (c *Client) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}
