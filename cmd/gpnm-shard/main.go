// Command gpnm-shard is a partition-shard worker for the sharded §V
// substrate: it holds the partitions a coordinator assigns to it and
// nothing else — their subgraphs and intra-partition SLen engines —
// speaking the HTTP protocol of internal/shard (JSON requests, packed
// binary rows back).
//
// Workers start empty and idle until a coordinator — gpnm-serve
// launched with -shards host:port,... — claims them with a /build; the
// horizon and the worker pool come from the coordinator with that call. One worker serves one
// coordinator at a time; a new /build simply re-claims it.
//
//	gpnm-shard -addr :9101
//
// The process shuts down gracefully on SIGINT/SIGTERM, draining
// in-flight requests so a coordinator mid-batch sees a completed op
// stream rather than a severed connection.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"uagpnm/internal/shard"
	"uagpnm/internal/srvutil"
	"uagpnm/internal/version"
)

func main() {
	// Loopback by default: the protocol is unauthenticated (any peer
	// reaching it could /build over the worker's state), so exposing it
	// beyond the host is an explicit operator decision — bind a
	// non-loopback address only on a network you trust end to end.
	addr := flag.String("addr", "127.0.0.1:9101", "listen address (protocol is unauthenticated; expose beyond loopback only on a trusted network)")
	grace := flag.Duration("grace", 30*time.Second, "graceful shutdown drain window")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty = off)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("gpnm-shard"))
		return
	}
	srvutil.StartPprof(*pprofAddr, "gpnm-shard", os.Stderr)

	s := shard.NewServer()
	fmt.Fprintf(os.Stderr, "gpnm-shard: listening on %s (awaiting coordinator /build)\n", *addr)
	if err := srvutil.ListenAndServe(*addr, s.Handler(), "gpnm-shard", *grace, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "gpnm-shard:", err)
		os.Exit(1)
	}
}
