package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"flux"
	"flux/internal/shard"
	"flux/internal/stream"
)

// newServer assembles the serving stack for a validated config: a
// catalog holding the configured documents, a batching executor over
// it, a streaming hub for the live-ingestion endpoints, and the
// shard-worker HTTP surface (internal/shard.Server) that fluxd serves
// standalone and fluxrouter supervises as a shard. All serving policy
// lives in the flux library and the shared veneer; fluxd itself is flag
// parsing plus this assembly.
func newServer(cfg config) (*shard.Server, error) {
	cat := flux.NewCatalog(flux.CatalogOptions{
		QueryCacheCap:          cfg.cacheCap,
		MaxResidentBufferBytes: cfg.maxResident,
	})
	for _, d := range cfg.docs {
		dtdText, err := os.ReadFile(d.DTDPath)
		if err != nil {
			return nil, fmt.Errorf("DTD %s: %w", d.DTDPath, err)
		}
		if err := cat.Add(d.Name, d.DocPath, string(dtdText)); err != nil {
			return nil, err
		}
	}
	for _, d := range cfg.streamDocs {
		dtdText, err := os.ReadFile(d.dtdPath)
		if err != nil {
			return nil, fmt.Errorf("DTD %s: %w", d.dtdPath, err)
		}
		if err := cat.AddStream(d.name, string(dtdText)); err != nil {
			return nil, err
		}
	}
	ex, err := flux.NewExecutor(cat, flux.ExecutorOptions{
		Window:             cfg.window,
		MaxBatch:           cfg.maxBatch,
		AttrsToSubelements: cfg.attrs,
	})
	if err != nil {
		return nil, err
	}
	// Built here rather than defaulted inside shard.NewServer so -attrs
	// applies to ingested streams exactly as it does to file scans.
	hub := stream.NewHub(cat, stream.Options{
		AttrsToSubelements: cfg.attrs,
	})
	return shard.NewServer(ex, shard.ServerOptions{
		Admin:     cfg.admin,
		ShardID:   cfg.shardID,
		Advertise: cfg.advertise,
		Stream:    hub,
	}), nil
}

// runTail feeds the named document's stream from a file or named pipe —
// the non-HTTP ingestion path, for producers that write to a FIFO
// instead of holding a POST open. Each open-to-EOF of the path is one
// complete document ingest; a named pipe is then re-opened for the next
// document, while a regular file is ingested once. Failures are logged
// and, for a pipe, retried with the next document — a bad producer must
// not take the server down.
func runTail(s *shard.Server, tl tailSpec) {
	for {
		f, err := os.Open(tl.path)
		if err != nil {
			log.Printf("fluxd: tail %s: %v", tl.doc, err)
			return
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			log.Printf("fluxd: tail %s: %v", tl.doc, err)
			return
		}
		pipe := fi.Mode()&os.ModeNamedPipe != 0

		ing, err := s.Hub().StartIngest(context.Background(), tl.doc)
		if err != nil {
			f.Close()
			log.Printf("fluxd: tail %s: %v", tl.doc, err)
			return
		}
		n, err := io.Copy(ing, f)
		if err != nil {
			err = ing.Abort(err)
		} else {
			err = ing.Close()
		}
		f.Close()
		if err != nil {
			log.Printf("fluxd: tail %s: failed after %d bytes: %v", tl.doc, n, err)
		} else {
			log.Printf("fluxd: tail %s: ingested %d bytes, %d events", tl.doc, n, ing.Events())
		}
		if !pipe {
			return
		}
		// Brief pause so a persistently failing producer cannot spin
		// the re-open loop hot.
		time.Sleep(10 * time.Millisecond)
	}
}
