// Command jadeworker is a standalone worker daemon for the live runtime: it
// dials a coordinator started with jade.NewLive, or a multi-tenant session
// service started with jade.NewService (Transport "tcp", AwaitExternal > 0
// either way), advertises its capabilities and data format, and executes
// dispatched tasks until the run or the service ends.
//
//	jadeworker -addr host:7070 -name gpu1 -caps gpu,camera -slots 2
//
// Go closures cannot cross a process boundary, so a coordinator dispatches
// work to external workers by task kind (jade.TaskOptions.Kind): both the
// coordinator binary and the worker binary register the same kinds with
// jade.RegisterKind — the paper's model of installing the program text on
// every machine ahead of time. Link application kind registrations into
// this binary (or a copy of it) for real work; a stock jadeworker can still
// serve as a remote memory/relay endpoint for closure-free protocols.
//
// A service hosts an isolated worker instance on the daemon per announced
// session, all sharing -slots under its per-tenant quotas. A daemon that
// dials a service after it has started is refused, like a late worker at
// a non-elastic run.
//
// Capability tags (-caps) drive §4.5 placement: tasks created with
// jade.TaskOptions.RequireCap schedule only onto workers advertising
// the tag (the internal/apps/serve workload pins its camera ingest and display
// egress stages this way). A coordinator or service started with
// jade.ObsConfig exposes this daemon's observed behavior — slot
// ledgers, dispatch flows, per-task-kind latency — on its /metrics and
// /trace endpoints; the daemon itself needs no flags for that.
//
// With -loop the daemon reconnects and serves again after each run,
// so one long-lived worker can participate in many coordinator runs.
// Against an elastic coordinator (jade.LiveConfig.Elastic) each redial
// joins the run in progress as a brand-new member — including after the
// coordinator declared a previous incarnation dead and evicted it.
//
// SIGTERM or SIGINT drains the worker: it announces its departure to the
// coordinator, finishes the tasks it holds — each sends home what it wrote
// — and exits once the coordinator releases it. A second signal kills it
// immediately. A worker whose dial reaches a coordinator that is already
// shutting down (live.ErrClosing: the program finished first) is told so
// and ends like one that served the run to completion.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/jade"
)

func main() {
	var (
		addr  = flag.String("addr", "127.0.0.1:7070", "coordinator address to join")
		name  = flag.String("name", "", "worker name in coordinator diagnostics (default host:pid)")
		caps  = flag.String("caps", "", "comma-separated capability tags to advertise (e.g. gpu,camera)")
		slots = flag.Int("slots", 1, "concurrent task slots (serving a session service: machine total shared by all sessions)")
		loop  = flag.Bool("loop", false, "serve runs forever: reconnect after each run ends")
		retry = flag.Duration("retry", time.Second, "redial interval with -loop")
	)
	flag.Parse()

	wn := *name
	if wn == "" {
		host, _ := os.Hostname()
		wn = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	var tags []string
	for _, c := range strings.Split(*caps, ",") {
		if c = strings.TrimSpace(c); c != "" {
			tags = append(tags, c)
		}
	}
	drain := make(chan struct{})
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		<-sigs
		fmt.Fprintf(os.Stderr, "jadeworker: draining (signal again to exit now)\n")
		close(drain)
		<-sigs
		os.Exit(1)
	}()

	cfg := jade.WorkerConfig{Addr: *addr, Name: wn, Caps: tags, Slots: *slots, Drain: drain}

	for {
		err := jade.ServeWorker(cfg)
		switch {
		case errors.Is(err, jade.ErrWorkerEvicted):
			// The coordinator fenced this session and declared it dead; any
			// state it held has been rebuilt elsewhere. With -loop the next
			// dial joins the run as a fresh member.
			fmt.Fprintf(os.Stderr, "jadeworker: evicted by coordinator\n")
			if !*loop {
				os.Exit(1)
			}
		case err != nil:
			fmt.Fprintf(os.Stderr, "jadeworker: %v\n", err)
			if !*loop {
				os.Exit(1)
			}
		default:
			fmt.Fprintf(os.Stderr, "jadeworker: run complete\n")
			if !*loop {
				return
			}
		}
		select {
		case <-drain:
			fmt.Fprintf(os.Stderr, "jadeworker: drained, exiting\n")
			return
		case <-time.After(*retry):
		}
	}
}
