// Command explaind serves explanations over resident dataset pairs.
//
// Usage:
//
//	explaind -addr :8080 -data nces=dir1:dir2 [-data other=a:b ...] \
//	         [-cache 128] [-maxworkers 8]
//
// Each -data flag names a dataset pair and points at two directories of
// CSV tables (header row required), loaded once at startup into shared
// immutable state. Requests then hit:
//
//	POST /explain   {"dataset": "nces", "q1": "...", "q2": "...",
//	                 "matches": "Major.Major <= Stats.Program", ...}
//	POST /datasets/{name}/delta
//	                {"db1": {"Major": {"appends": [...], "updates":
//	                 [{"row": 3, "values": [...]}], "deletes": [7]}}, ...}
//	GET  /datasets  registered pairs and their row counts
//	GET  /stats     request/solve counters, cache hit/miss/eviction
//	                counts, single-flight joins, and delta metrics
//	                (deltas/rows applied, invalidations, dirty
//	                partitions, side builds, Stage-1 memo entries)
//	GET  /healthz   liveness
//
// Answers live in one result table: repeat and textually-equivalent
// requests are answered from its finished bodies, and concurrent identical
// requests join its in-flight solve. SIGINT/SIGTERM drains in-flight
// requests and cancels their solves.
//
// Deltas apply copy-on-write: each batch publishes a new dataset
// generation atomically while in-flight explains keep reading the
// generation they started on. Untouched relations are the same objects in
// every generation, so each dataset keeps one Stage-1 memo entry per query
// pair, reused while the relations both queries read are unchanged. A
// re-explain after a delta rebuilds only the sides whose read set the delta
// touched, advances the pair prefix over the dirty rows, and reuses cached
// block solutions whose instance hashes are unchanged. Result-table
// entries, finished or in flight, are dropped only if their queries read a
// touched relation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"explain3d"
	"explain3d/internal/serve"
)

var (
	addr       = flag.String("addr", ":8080", "listen address")
	cacheSize  = flag.Int("cache", 128, "result cache capacity (entries)")
	maxWorkers = flag.Int("maxworkers", 0, "cap on per-request solve workers (0 = uncapped)")
)

// Connection timeouts: a client gets readHeaderTimeout to send its request
// headers, and an idle keep-alive connection is closed after idleTimeout.
// Neither bounds a request body or a solve.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
)

func main() {
	var pairs []string
	flag.Func("data", "dataset pair as name=dir1:dir2 (repeatable)", func(v string) error {
		pairs = append(pairs, v)
		return nil
	})
	flag.Parse()
	if len(pairs) == 0 {
		fmt.Fprintln(os.Stderr, "explaind: at least one -data name=dir1:dir2 is required")
		flag.Usage()
		os.Exit(2)
	}

	srv := serve.New(serve.Options{CacheSize: *cacheSize, MaxWorkers: *maxWorkers})
	defer srv.Close()
	for _, p := range pairs {
		name, dirs, ok := strings.Cut(p, "=")
		dir1, dir2, ok2 := strings.Cut(dirs, ":")
		if !ok || !ok2 || name == "" || dir1 == "" || dir2 == "" {
			fatal(fmt.Errorf("malformed -data %q, want name=dir1:dir2", p))
		}
		db1 := explain3d.NewDatabase(name + "-1")
		db1.MustLoadCSVDir(dir1)
		db2 := explain3d.NewDatabase(name + "-2")
		db2.MustLoadCSVDir(dir2)
		if err := srv.Register(name, db1.Raw(), db2.Raw()); err != nil {
			fatal(err)
		}
		fmt.Printf("explaind: dataset %q loaded (%d + %d rows)\n",
			name, db1.Raw().TotalRows(), db2.Raw().TotalRows())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hs := &http.Server{
		Addr: *addr, Handler: srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout,
	}
	go func() {
		<-ctx.Done()
		fmt.Println("explaind: shutting down")
		// Drain in-flight requests briefly, then cancel their solves.
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			hs.Close()
		}
		srv.Close()
	}()
	fmt.Printf("explaind: listening on %s\n", *addr)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "explaind: %v\n", err)
	os.Exit(1)
}
