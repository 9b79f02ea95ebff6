// Command gpnm-serve exposes a standing-query hub over HTTP/JSON: one
// evolving data graph, one shared SLen substrate, many registered
// patterns — every update batch pays the substrate synchronisation once
// and streams per-pattern result deltas to subscribers. The protocol is
// the versioned /v1 API of internal/api, which uagpnm.Dial speaks.
//
// Start it on a SNAP-style edge list (optionally with a label file), on
// a generated synthetic social graph, or on an empty graph to be grown
// entirely through /v1/apply:
//
//	gpnm-serve -graph g.txt -labels g.labels -horizon 3
//	gpnm-serve -synth-nodes 2000 -synth-edges 8000 -synth-labels 12
//	gpnm-serve                       # empty graph, build via /v1/apply
//
// With -shards host:port,... the hub's partition substrate is served
// from that many gpnm-shard worker processes (the §V partitions split
// round-robin, the bridge overlay staying in this process as the
// coordination layer); the HTTP API is unchanged. A worker lost
// mid-run is repaired by the first batch, registration or read that
// meets it: the coordinator rebuilds the lost partitions from its own
// subgraph mirrors on the surviving workers — or on a standby from
// -spare-shards — replays the in-flight op stream under an epoch fence,
// and retries the operation. /v1/healthz answers 200
// {"recovering":true} while the repair runs; every other request waits
// for the repair and is then served. Only when nothing survives, or a
// second loss meets the same operation after its repair, does the
// terminal path fire: the hub poisons itself, every handler answers the
// machine-readable substrate_lost error, parked long-polls are woken,
// and the process drains gracefully and exits non-zero for its
// supervisor to restart into a clean build. SIGINT/SIGTERM drain the
// same way.
//
// Endpoints (see README.md for the table and curl examples):
//
//	GET    /v1/healthz                      liveness + hub stats
//	POST   /v1/patterns                     register (DSL or typed graph) → id + initial result
//	GET    /v1/patterns/{id}                current result
//	GET    /v1/patterns/{id}/snapshot       typed pattern + raw simulation images + seq
//	DELETE /v1/patterns/{id}                unregister
//	POST   /v1/apply                        typed update batch
//	GET    /v1/patterns/{id}/deltas?since=N long-poll result changes
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"uagpnm"
	"uagpnm/internal/shard"
	"uagpnm/internal/srvutil"
	"uagpnm/internal/version"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	showVersion := flag.Bool("version", false, "print version and exit")
	graphPath := flag.String("graph", "", "data graph edge list (SNAP format); empty = start empty or synthetic")
	labelsPath := flag.String("labels", "", "optional node label file for -graph")
	defaultLabel := flag.String("default-label", "node", "label for nodes without one")
	synthNodes := flag.Int("synth-nodes", 0, "generate a synthetic social graph with this many nodes (0 = off)")
	synthEdges := flag.Int("synth-edges", 0, "edges for the synthetic graph (default 4×nodes)")
	synthLabels := flag.Int("synth-labels", 12, "distinct labels for the synthetic graph")
	seed := flag.Int64("seed", 1, "synthetic graph seed")
	horizon := flag.Int("horizon", 3, "SLen hop cap (0 = exact distances)")
	shards := flag.String("shards", "", "comma-separated gpnm-shard worker addresses (host:port,...); empty = in-process substrate")
	spareShards := flag.String("spare-shards", "", "standby gpnm-shard workers promoted on shard loss (host:port,...)")
	history := flag.Int("history", 0, "retained deltas per pattern for long-polling (0 = default)")
	pollTimeout := flag.Duration("poll-timeout", 30*time.Second, "maximum long-poll wait")
	grace := flag.Duration("grace", 30*time.Second, "graceful shutdown drain window")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty = off)")
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("gpnm-serve"))
		return
	}
	srvutil.StartPprof(*pprofAddr, "gpnm-serve", os.Stderr)

	g, err := buildGraph(*graphPath, *labelsPath, *defaultLabel, *synthNodes, *synthEdges, *synthLabels, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpnm-serve:", err)
		os.Exit(1)
	}
	stats := g.ComputeStats()
	fmt.Fprintf(os.Stderr, "gpnm-serve: graph ready — %d nodes, %d edges, %d labels\n",
		stats.Nodes, stats.Edges, stats.Labels)

	shardAddrs := shard.ParseAddrs(*shards)
	spareAddrs := shard.ParseAddrs(*spareShards)
	if len(shardAddrs) > 0 {
		fmt.Fprintf(os.Stderr, "gpnm-serve: sharded substrate across %d worker(s): %s\n",
			len(shardAddrs), strings.Join(shardAddrs, ", "))
		if len(spareAddrs) > 0 {
			fmt.Fprintf(os.Stderr, "gpnm-serve: %d spare worker(s) on standby: %s\n",
				len(spareAddrs), strings.Join(spareAddrs, ", "))
		}
	}

	h, err := uagpnm.NewHub(g, uagpnm.HubOptions{
		Horizon:     *horizon,
		Shards:      shardAddrs,
		SpareShards: spareAddrs,
		History:     *history,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpnm-serve: building hub:", err)
		os.Exit(1)
	}

	// Substrate loss (a shard worker died mid-batch) starts the same
	// graceful drain a SIGTERM would: the hub has already woken every
	// parked long-poll with ErrSubstrateLost, handlers answer the
	// machine-readable substrate_lost error, and closing stop lets
	// in-flight requests finish inside the grace window instead of the
	// old recover-and-os.Exit path severing them. The handler fires the
	// callback exactly once, and the hub keeps the loss sticky (Err).
	stop := make(chan struct{})
	handler := uagpnm.NewHandler(h, uagpnm.HandlerOptions{
		PollTimeout: *pollTimeout,
		OnSubstrateLoss: func(err error) {
			fmt.Fprintf(os.Stderr, "gpnm-serve: substrate lost (%v) — draining\n", err)
			close(stop)
		},
	})

	fmt.Fprintf(os.Stderr, "gpnm-serve: listening on %s\n", *addr)
	// Graceful shutdown on SIGINT/SIGTERM or substrate loss: in-flight
	// /v1/apply and long-polls drain within the grace window instead of
	// being severed.
	err = srvutil.ListenAndServeUntil(*addr, handler, "gpnm-serve", *grace, os.Stderr, stop)
	_ = h.Close() // release remote shard clients after the drain
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpnm-serve:", err)
		os.Exit(1)
	}
	if lossErr := h.Err(); lossErr != nil {
		// Drained cleanly, but the substrate is gone: exit non-zero so a
		// supervisor restarts this process into a fresh build.
		fmt.Fprintln(os.Stderr, "gpnm-serve: exiting after substrate loss:", lossErr)
		os.Exit(1)
	}
}

func buildGraph(graphPath, labelsPath, defaultLabel string, synthNodes, synthEdges, synthLabels int, seed int64) (*uagpnm.Graph, error) {
	if graphPath != "" {
		gf, err := os.Open(graphPath)
		if err != nil {
			return nil, err
		}
		defer gf.Close()
		g, idMap, err := uagpnm.LoadGraphWithIDs(gf, defaultLabel)
		if err != nil {
			return nil, err
		}
		if labelsPath != "" {
			lf, err := os.Open(labelsPath)
			if err != nil {
				return nil, err
			}
			defer lf.Close()
			// Label files are keyed by the edge list's original ids; the
			// loader remapped those densely, so apply through the id map.
			skipped, err := g.ApplyLabelsMapped(lf, idMap)
			if err != nil {
				return nil, err
			}
			if skipped > 0 {
				fmt.Fprintf(os.Stderr, "gpnm-serve: %d label line(s) named nodes absent from the edge list (isolated); skipped\n", skipped)
			}
		}
		return g, nil
	}
	if synthNodes > 0 {
		if synthEdges == 0 {
			synthEdges = 4 * synthNodes
		}
		return uagpnm.GenerateSocialGraph(uagpnm.SocialGraphConfig{
			Name: "serve", Nodes: synthNodes, Edges: synthEdges,
			Labels: synthLabels, Homophily: 0.8, PrefAtt: 0.6, Seed: seed,
		}), nil
	}
	return uagpnm.NewGraph(), nil
}
