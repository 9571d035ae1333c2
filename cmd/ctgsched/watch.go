package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"time"

	"ctgdvfs/internal/series"
	"ctgdvfs/internal/telemetry"
)

// runWatch implements `ctgsched watch`: a live terminal view of manager
// telemetry as sparkline rows. Two modes:
//
//   - `-dump FILE` (or a positional file) renders a series dump written by
//     `experiments -series-out` once and exits — the replayable mode the
//     goldens pin.
//   - `-addr HOST:PORT` polls the JSON GET /v1/metrics endpoint of a
//     running `ctgschedd` every -interval, ingesting each snapshot into a
//     client-side collector and re-rendering until interrupted (or for
//     -frames renders, for scripted smoke runs).
func runWatch(args []string) {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	addr := fs.String("addr", "", "poll a ctgschedd's live /v1/metrics endpoint at this host:port")
	dump := fs.String("dump", "", "render a series dump file (from `experiments -series-out`) instead of polling")
	interval := fs.Duration("interval", time.Second, "poll interval in live mode")
	frames := fs.Int("frames", 0, "stop after this many live renders (0 = until interrupted)")
	width := fs.Int("width", 48, "sparkline width in columns")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: ctgsched watch -addr HOST:PORT | -dump FILE [flags]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if *dump == "" && *addr == "" && fs.NArg() == 1 {
		*dump = fs.Arg(0)
	}
	opts := series.WatchOptions{Width: *width}

	switch {
	case *dump != "":
		d, err := series.LoadDump(*dump)
		if err != nil {
			fmt.Fprintf(os.Stderr, "watch: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(series.RenderWatch(d, opts))
	case *addr != "":
		if err := watchLive(os.Stdout, *addr, *interval, *frames, opts); err != nil {
			fmt.Fprintf(os.Stderr, "watch: %v\n", err)
			os.Exit(1)
		}
	default:
		fs.Usage()
		os.Exit(2)
	}
}

// watchLive polls the daemon's /v1/metrics JSON endpoint, folds each snapshot into a
// collector (tick = poll number), and redraws w after every poll.
func watchLive(w io.Writer, addr string, interval time.Duration, frames int, opts series.WatchOptions) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	url := "http://" + addr + "/v1/metrics"
	col := series.NewCollector(0)
	client := &http.Client{Timeout: 10 * time.Second}
	for tick := 0; frames <= 0 || tick < frames; tick++ {
		snap, err := fetchSnapshot(ctx, client, url)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		col.IngestSnapshot(tick, snap)
		// ANSI clear + home redraws in place, like top(1).
		fmt.Fprint(w, "\033[H\033[2J")
		fmt.Fprintf(w, "watching %s every %v (interrupt to stop)\n", url, interval)
		fmt.Fprint(w, series.RenderWatch(col.Dump(), opts))
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(interval):
		}
	}
	return nil
}

func fetchSnapshot(ctx context.Context, client *http.Client, url string) (telemetry.Snapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return telemetry.Snapshot{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return telemetry.Snapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return telemetry.Snapshot{}, fmt.Errorf("%s: %s", url, resp.Status)
	}
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return telemetry.Snapshot{}, err
	}
	return snap, nil
}
