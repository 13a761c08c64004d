package live_test

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"

	"repro/internal/exec/live"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
)

// proxy forwards loopback TCP connections to a target address. sever
// cuts every connection it is carrying while it goes on forwarding new
// dials: the network failing under a connection whose two endpoints are
// both alive, and would reconnect if anything tried.
type proxy struct {
	ln     net.Listener
	target string

	mu    sync.Mutex
	socks []net.Conn
}

func newProxy(t *testing.T, target string) *proxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &proxy{ln: ln, target: target}
	t.Cleanup(func() {
		ln.Close()
		p.sever()
	})
	go p.serve()
	return p
}

func (p *proxy) serve() {
	for {
		in, err := p.ln.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", p.target)
		if err != nil {
			in.Close()
			continue
		}
		p.mu.Lock()
		p.socks = append(p.socks, in, out)
		p.mu.Unlock()
		go forward(in, out)
		go forward(out, in)
	}
}

func forward(dst, src net.Conn) {
	io.Copy(dst, src)
	dst.Close()
	src.Close()
}

// sever closes both sides of every connection the proxy carries.
func (p *proxy) sever() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.socks {
		s.Close()
	}
	p.socks = nil
}

// TestSeveredSocketIsAMemberDeath: one of three tcp workers dials through
// a proxy, which cuts its connection after a few retirements. A severed
// socket is one more schedule: the coordinator declares the worker dead,
// fences it, sweeps what it owned and re-executes what it held, and the
// result is the serial one. Nothing resumes the connection, although the
// proxy would forward a redial.
func TestSeveredSocketIsAMemberDeath(t *testing.T) {
	const workers, nObjects, objLen, cutAfter = 3, 4, 4, 3
	l, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	p := newProxy(t, l.Addr())
	bodies := live.NewBodyTable()
	for i := 0; i < workers; i++ {
		addr := l.Addr()
		if i == 0 {
			addr = p.ln.Addr().String()
		}
		c, err := tcp.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		go live.Serve(c, live.WorkerOptions{Name: fmt.Sprintf("w%d", i+1), Bodies: bodies})
	}
	peers := make([]transport.Conn, workers)
	for i := range peers {
		c, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = c
	}
	x, err := live.New(live.Options{
		Peers:  peers,
		Bodies: bodies,
		// On a receive loop, like any retirement hook: closing sockets
		// does not wait.
		OnTaskDone: func(done int) {
			if done == cutAfter {
				p.sever()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tasks := genChaosTasks(rand.New(rand.NewSource(31)), 40, nObjects)
	chaosCheck(t, "severed", x, tasks, nObjects, objLen)
	if fs := x.Stats().Fault; fs.CrashesDetected != 1 {
		t.Fatalf("CrashesDetected = %d, want 1: a severed connection is a member death", fs.CrashesDetected)
	}
}
