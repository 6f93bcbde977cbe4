package main

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"tlbprefetch/internal/cli"
	"tlbprefetch/internal/sweep"
	"tlbprefetch/internal/sweepd"
	"tlbprefetch/internal/trace"
)

// runServe is coordinator mode: the declared grid becomes a lease-based
// job feed that remote workers drain; verified results merge into the
// store, which is saved on completion. The merged store is byte-identical
// to a single-process sweep of the same grid.
//
// Hardening knobs: -token gates every endpoint behind bearer auth,
// -tls-cert/-tls-key serve the feed over TLS, -checkpoint saves a
// file-bound store mid-grid so a crash (or SIGTERM) loses at most one
// interval, and any -trace files are served as content-addressed blobs so
// workers need not carry their own copies.
func (cfg *sweepConfig) runServe(store *sweep.Store) error {
	// Every trace job carries its local path (the coordinator built the
	// grid, so it has the files); serve them all as blobs — mix members
	// included, so a worker can materialize every stream a mix interleaves.
	blobs := make(map[string]string)
	for _, j := range cfg.jobs {
		for _, src := range j.Sources() {
			if src.IsTrace() && src.TracePath != "" {
				blobs[src.TraceSHA256] = src.TracePath
			}
		}
	}
	ccfg := sweepd.Config{
		Jobs:     cfg.jobs,
		Store:    store,
		LeaseTTL: cfg.leaseTTL,
		MaxBatch: cfg.batch,
		Token:    cfg.token,
		Blobs:    blobs,
	}
	if cfg.storePath != "" {
		// Checkpointing an in-memory store would be a silent no-op; only a
		// file-bound store can resume.
		ccfg.Checkpoint = cfg.checkpoint
	}
	if !cfg.quiet {
		ccfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(cfg.stderr, format+"\n", args...)
		}
	}
	coord, err := sweepd.New(ccfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", cfg.serve)
	if err != nil {
		return fmt.Errorf("-serve %s: %w", cfg.serve, err)
	}
	st := coord.Status()
	scheme := "http"
	if cfg.tlsCert != "" {
		scheme = "https"
	}
	fmt.Fprintf(cfg.stderr, "tlbsweep: serving %d-cell feed (%d cached, %d to run) on %s://%s\n",
		st.Total, st.Cached, st.Pending, scheme, ln.Addr())
	srv := &http.Server{Handler: coord.Handler()}
	if cfg.tlsCert != "" {
		go srv.ServeTLS(ln, cfg.tlsCert, cfg.tlsKey)
	} else {
		go srv.Serve(ln)
	}
	defer srv.Close()

	// SIGTERM/SIGINT drain: stop waiting, checkpoint what has settled, and
	// exit with a distinct code. A restart with the same -store re-feeds
	// only the still-dirty cells.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	waitErr := coord.Wait(ctx)
	if errors.Is(waitErr, context.Canceled) {
		if cfg.storePath != "" {
			if err := store.Save(); err != nil {
				return fmt.Errorf("interrupted, and the final checkpoint failed: %w", err)
			}
		}
		drained := coord.Status()
		fmt.Fprintf(cfg.stderr, "tlbsweep: interrupted with %d of %d cells still unsettled; store checkpointed — rerun with the same -store and grid to resume\n",
			drained.Pending+drained.Leased, drained.Total)
		return cli.Exit(3)
	}
	if cfg.storePath != "" {
		if err := store.Save(); err != nil {
			return err
		}
	}
	final := coord.Status()
	fmt.Fprintf(cfg.stderr, "tlbsweep: %d cells (%d cached, %d completed by workers, %d failed) in %v\n",
		final.Total, final.Cached, final.Done, final.Failed, time.Since(start).Round(time.Millisecond))
	if waitErr != nil {
		return waitErr
	}

	// Emit the grid's results in enumeration order, exactly as a local
	// sweep of the same grid would.
	results := make([]sweep.Result, 0, len(cfg.jobs))
	for _, j := range cfg.jobs {
		r, ok, err := store.Get(j.Key().Hash())
		if err != nil {
			return err
		}
		if ok {
			results = append(results, r)
		}
	}
	return cfg.emit(results)
}

// runWorker is worker mode: join the coordinator's feed, simulate leased
// cells on the local sharded path, upload fingerprinted results, exit when
// the grid completes. Trace cells resolve against local -trace files
// first, then fall back to fetching the blob from the coordinator into a
// bounded, digest-verified on-disk cache.
func (cfg *sweepConfig) runWorker() error {
	traces, err := localTraces(cfg.traces)
	if err != nil {
		return err
	}
	client, err := workerClient(cfg.tlsCA)
	if err != nil {
		return err
	}
	w := &sweepd.Worker{
		URL:      strings.TrimRight(cfg.workerURL, "/"),
		ID:       cfg.workerID,
		Token:    cfg.token,
		Client:   client,
		MaxBatch: cfg.batch,
		Traces:   traces,
		Blobs:    &sweepd.BlobCache{Dir: blobCacheDir(cfg.blobCache)},
		Runner:   &sweep.Runner{Workers: cfg.workers},
	}
	if !cfg.quiet {
		w.Logf = func(format string, args ...any) {
			fmt.Fprintf(cfg.stderr, format+"\n", args...)
		}
	}
	start := time.Now()
	sum, err := w.Run(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.stderr, "tlbsweep: worker ran %d cells in %d shards in %v\n",
		sum.Ran, sum.Shards, time.Since(start).Round(time.Millisecond))
	return nil
}

// workerClient builds the worker's HTTP client. With -tls-ca it trusts
// exactly that CA (the usual shape for a self-signed lab coordinator);
// otherwise the default client (system roots for https, plain http else).
func workerClient(caPath string) (*http.Client, error) {
	if caPath == "" {
		return nil, nil // Worker defaults to http.DefaultClient
	}
	pem, err := os.ReadFile(caPath)
	if err != nil {
		return nil, fmt.Errorf("-tls-ca: %w", err)
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(pem) {
		return nil, fmt.Errorf("-tls-ca %s: no PEM certificates found", caPath)
	}
	return &http.Client{
		Transport: &http.Transport{TLSClientConfig: &tls.Config{RootCAs: pool}},
	}, nil
}

// blobCacheDir resolves the worker's blob-cache directory: the -blob-cache
// flag, else a stable per-user cache dir, else a temp dir.
func blobCacheDir(flag string) string {
	if flag != "" {
		return flag
	}
	if base, err := os.UserCacheDir(); err == nil {
		return filepath.Join(base, "tlbsweep-blobs")
	}
	return filepath.Join(os.TempDir(), "tlbsweep-blobs")
}

// localTraces digests the worker's -trace files into the digest → path
// map leased trace cells are resolved against.
func localTraces(spec string) (map[string]string, error) {
	out := make(map[string]string)
	for _, tok := range split(spec, ",") {
		digest, err := trace.DigestFile(tok)
		if err != nil {
			return nil, err
		}
		out[digest] = tok
	}
	return out, nil
}
