// Body resolution for the live executor.
//
// A Jade task body is a Go closure, which cannot cross a process
// boundary. The live executor therefore resolves bodies two ways:
//
//   - BodyTable: workers that share the coordinator's process (the
//     in-process and TCP-loopback configurations) share one table of
//     closures keyed by a creator-assigned body key. The key travels in
//     the dispatch frame; the closure never does.
//   - Kind registry: tasks created with a Kind name dispatch to any
//     worker — including a separate jadeworker process — that has
//     registered a body constructor for that kind. The kind name and an
//     opaque argument blob travel on the wire.
//
// This mirrors the paper's model: the program text (the bodies) is
// installed on every machine ahead of time; only task identities and
// data move at run time.
package live

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/access"
	"repro/internal/rt"
)

// BodyTable holds closures for tasks dispatched inside one process.
// The coordinator and its local workers share one table.
type BodyTable struct {
	mu     sync.Mutex
	next   uint64
	bodies map[uint64]func(rt.TC)
}

// NewBodyTable returns an empty table.
func NewBodyTable() *BodyTable {
	return &BodyTable{next: 1, bodies: map[uint64]func(rt.TC){}}
}

// put registers a body and returns its key.
func (b *BodyTable) put(body func(rt.TC)) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	k := b.next
	b.next++
	b.bodies[k] = body
	return k
}

// take removes and returns the body for key (each body runs once).
func (b *BodyTable) take(key uint64) (func(rt.TC), bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	body, ok := b.bodies[key]
	delete(b.bodies, key)
	return body, ok
}

// peek returns the body for key without consuming it. The recovery
// machinery uses it to retain a re-executable reference to worker-created
// closure bodies that share the coordinator's process.
func (b *BodyTable) peek(key uint64) (func(rt.TC), bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	body, ok := b.bodies[key]
	return body, ok
}

// drop discards a registered body (creation failed before dispatch).
func (b *BodyTable) drop(key uint64) {
	b.mu.Lock()
	delete(b.bodies, key)
	b.mu.Unlock()
}

// KindFunc builds a task body from an argument blob. Registered kinds
// let remote workers — separate processes that cannot share closures —
// execute tasks by name.
type KindFunc func(args []byte) func(rt.TC)

// KindRegistry maps kind names to body constructors.
type KindRegistry struct {
	mu    sync.Mutex
	kinds map[string]KindFunc
}

// NewKindRegistry returns an empty registry.
func NewKindRegistry() *KindRegistry {
	return &KindRegistry{kinds: map[string]KindFunc{}}
}

// Register adds a kind. Registering a duplicate name panics: kinds are
// program-level bindings, like init-time flag registration.
func (r *KindRegistry) Register(name string, fn KindFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.kinds[name]; dup {
		panic(fmt.Sprintf("live: kind %q registered twice", name))
	}
	r.kinds[name] = fn
}

// resolve builds a body for the kind, or reports failure.
func (r *KindRegistry) resolve(name string, args []byte) (func(rt.TC), bool) {
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	fn, ok := r.kinds[name]
	r.mu.Unlock()
	if !ok {
		return nil, false
	}
	return fn(args), true
}

// Kinds is the process-global registry used by default: jadeworker
// binaries register their kinds here at init time.
var Kinds = NewKindRegistry()

// RegisterKind registers a task-kind constructor in the global registry.
func RegisterKind(name string, fn KindFunc) { Kinds.Register(name, fn) }

// createReq is the decoded payload of a TCreateReq frame: the child's
// declarations plus the fields of rt.TaskOpts that do not fit the
// frame's scalar slots.
type createReq struct {
	decls      []access.Decl
	requireCap string
	kindArgs   []byte
}

// marshalCreate packs a createReq into a frame payload:
// 4-byte decl count, then per decl 8-byte object + 4-byte mode, then a
// 4-byte-length-prefixed capability string, then the kind args.
func marshalCreate(c createReq) []byte {
	buf := make([]byte, 0, 4+12*len(c.decls)+4+len(c.requireCap)+len(c.kindArgs))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.decls)))
	for _, d := range c.decls {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(d.Object))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d.Mode))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.requireCap)))
	buf = append(buf, c.requireCap...)
	buf = append(buf, c.kindArgs...)
	return buf
}

func unmarshalCreate(data []byte) (createReq, error) {
	var c createReq
	if len(data) < 4 {
		return c, fmt.Errorf("live: create payload truncated")
	}
	n := binary.LittleEndian.Uint32(data)
	data = data[4:]
	if uint64(n)*12 > uint64(len(data)) {
		return c, fmt.Errorf("live: create payload declares %d decls in %d bytes", n, len(data))
	}
	c.decls = make([]access.Decl, n)
	for i := range c.decls {
		c.decls[i].Object = access.ObjectID(binary.LittleEndian.Uint64(data))
		c.decls[i].Mode = access.Mode(binary.LittleEndian.Uint32(data[8:]))
		data = data[12:]
	}
	if len(data) < 4 {
		return c, fmt.Errorf("live: create payload missing capability length")
	}
	capLen := binary.LittleEndian.Uint32(data)
	data = data[4:]
	if uint64(capLen) > uint64(len(data)) {
		return c, fmt.Errorf("live: create payload capability overruns")
	}
	c.requireCap = string(data[:capLen])
	data = data[capLen:]
	if len(data) > 0 {
		c.kindArgs = append([]byte(nil), data...)
	}
	return c, nil
}
