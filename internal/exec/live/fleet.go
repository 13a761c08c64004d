package live

import (
	"fmt"
	"sync"

	"repro/internal/transport"
	"repro/internal/transport/inproc"
	"repro/internal/transport/tcp"
)

// Host returns the options in-process worker i serves with: the fleet runs
// the one worker host (a MultiServer) on its connection.
type Host func(i int) WorkerOptions

// Fleet is the set of workers a coordinator starts in its own process,
// plus the rendezvous through which workers in other processes reach it.
// It is the one place the runtime picks a transport: goroutine pipes
// ("inproc") or loopback sockets behind one listener ("tcp").
type Fleet struct {
	host  Host
	ln    *tcp.Listener // nil on inproc
	hosts sync.WaitGroup
	late  sync.WaitGroup // the loop answering late dials

	mu      sync.Mutex
	servers []*MultiServer // the in-process workers' hosts, joins included
}

// StartFleet starts local in-process workers on transport tr ("" means
// inproc) and, on tcp, waits for external workers from other processes to
// dial listen ("" means "127.0.0.1:0"). It returns the coordinator's ends
// of all local+external connections, in the order they arrived.
func StartFleet(tr, listen string, local, external int, host Host) (*Fleet, []transport.Conn, error) {
	if local < 0 || local+external == 0 {
		return nil, nil, fmt.Errorf("live: a fleet needs a worker (%d local, %d external)", local, external)
	}
	f := &Fleet{host: host}
	switch tr {
	case "", "inproc":
		if external > 0 {
			return nil, nil, fmt.Errorf("live: external workers need transport \"tcp\"")
		}
		conns := make([]transport.Conn, local)
		for i := range conns {
			a, b := inproc.Pipe()
			f.start(b)
			conns[i] = a
		}
		return f, conns, nil
	case "tcp":
		if listen == "" {
			listen = "127.0.0.1:0"
		}
		ln, err := tcp.Listen(listen)
		if err != nil {
			return nil, nil, fmt.Errorf("live: listen: %w", err)
		}
		// Dial returns once the listener has answered, before anyone
		// accepts, so the local workers dial here and a failed dial is
		// this call's error rather than an Accept that never returns.
		work := make([]transport.Conn, 0, local)
		for i := 0; i < local; i++ {
			c, err := tcp.Dial(ln.Addr())
			if err != nil {
				for _, c := range work {
					c.Close()
				}
				ln.Close()
				return nil, nil, fmt.Errorf("live: dial: %w", err)
			}
			work = append(work, c)
		}
		f.ln = ln
		for _, c := range work {
			f.start(c)
		}
		conns := make([]transport.Conn, 0, local+external)
		for len(conns) < local+external {
			c, err := ln.Accept()
			if err != nil {
				ln.Close()
				return nil, nil, fmt.Errorf("live: accept: %w", err)
			}
			conns = append(conns, c)
		}
		return f, conns, nil
	}
	return nil, nil, fmt.Errorf("live: unknown transport %q (known: inproc, tcp)", tr)
}

// start serves conn as the next in-process worker, in a goroutine.
func (f *Fleet) start(conn transport.Conn) {
	f.mu.Lock()
	ms := newMultiServer(conn, f.host(len(f.servers)))
	f.servers = append(f.servers, ms)
	f.mu.Unlock()
	f.hosts.Add(1)
	go func() { defer f.hosts.Done(); ms.Serve() }()
}

// Servers returns the in-process workers' hosts, in the order they started.
func (f *Fleet) Servers() []*MultiServer {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*MultiServer(nil), f.servers...)
}

// AnswerLate answers the dials that reach the listener after the
// rendezvous: each is admitted to x (elastic membership), or, with x nil,
// turned away. Inproc has no listener; there only Join adds a worker.
func (f *Fleet) AnswerLate(x *Exec) {
	if f.ln == nil {
		return
	}
	f.late.Add(1)
	go func() {
		defer f.late.Done()
		for {
			c, err := f.ln.Accept()
			if err != nil {
				return
			}
			if x != nil {
				go x.Admit(c)
			} else {
				c.Close()
			}
		}
	}()
}

// Join starts one more in-process worker and returns the coordinator's
// end of its connection, for Exec.Admit. On tcp the connection comes from
// a one-shot loopback listener, so a join is admitted whatever the
// fleet's listener answers late dials with.
func (f *Fleet) Join() (transport.Conn, error) {
	if f.ln == nil {
		a, b := inproc.Pipe()
		f.start(b)
		return a, nil
	}
	ln, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	work, err := tcp.Dial(ln.Addr())
	if err != nil {
		return nil, err
	}
	coord, err := ln.Accept()
	if err != nil {
		work.Close()
		return nil, err
	}
	f.start(work)
	return coord, nil
}

// Addr is the tcp address workers in other processes dial ("" on inproc,
// and on a nil fleet).
func (f *Fleet) Addr() string {
	if f == nil || f.ln == nil {
		return ""
	}
	return f.ln.Addr()
}

// Close stops answering dials and returns once the loop answering late
// ones has exited. Connections already made live on.
func (f *Fleet) Close() {
	if f.ln != nil {
		f.ln.Close()
	}
	f.late.Wait()
}

// Wait returns once every in-process worker's serve loop has returned.
func (f *Fleet) Wait() { f.hosts.Wait() }
