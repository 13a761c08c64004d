package pmake

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/jade"
)

// A shared file object is a 4-byte length prefix plus contents, sized to
// the most the file can hold during the build: its contents for a file no
// command writes, the output bound of its tool for a target (outputBound).
// An object moves whole, so that size is what every transfer of it costs.
const lenPrefix = 4

// putContent stores data into a file object's buffer. The object was sized
// for what its command can write, so the overflow check is an invariant.
func putContent(buf, data []byte) error {
	if len(data)+lenPrefix > len(buf) {
		return fmt.Errorf("file content %d bytes exceeds object capacity %d", len(data), len(buf)-lenPrefix)
	}
	binary.LittleEndian.PutUint32(buf, uint32(len(data)))
	copy(buf[lenPrefix:], data)
	return nil
}

// getContent extracts the contents from a file object's buffer.
func getContent(buf []byte) []byte {
	n := binary.LittleEndian.Uint32(buf)
	return append([]byte(nil), buf[lenPrefix:lenPrefix+n]...)
}

// BuildJade brings goal up to date using one Jade task per command — the
// paper's make: "the body of this loop is enclosed in a withonly-do
// construct that declares which files each recompilation command will
// access". It updates the project in place and returns the rebuilt targets
// in serial plan order. workPerByte models command cost for the simulator.
func BuildJade(r *jade.Runtime, p *Project, mf *Makefile, goal string, workPerByte float64) ([]string, error) {
	order, err := Plan(p, mf, goal)
	if err != nil {
		return nil, err
	}
	// The content size of every involved file: what it holds now, or, for a
	// target the build writes, the most its command can write. Plan order
	// puts each target after the targets it reads.
	size, rebuilt := map[string]int{}, map[string]bool{}
	for _, tgt := range order {
		for _, d := range mf.Rule(tgt).Deps {
			if !rebuilt[d] {
				size[d] = len(p.Files[d])
			}
		}
		size[tgt] = outputBound(mf.Rule(tgt).Command, tgt, func(d string) int { return size[d] })
		rebuilt[tgt] = true
	}
	objs := map[string]*jade.Array[byte]{}
	runErr := r.Run(func(t *jade.Task) {
		// Materialize every involved file as a shared object, in a
		// deterministic allocation order. A target starts empty: its
		// command overwrites it before anything reads it.
		names := make([]string, 0, len(size))
		for n := range size {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			obj := jade.NewArray[byte](t, lenPrefix+size[n], "file:"+n)
			if data, ok := p.Files[n]; ok && !rebuilt[n] {
				if err := putContent(obj.ReadWrite(t), data); err != nil {
					panic(fmt.Sprintf("pmake: %s: %v", n, err))
				}
				obj.Release(t)
			}
			objs[n] = obj
		}
		// One task per out-of-date command, in the serial loop's order.
		for _, tgt := range order {
			tgt := tgt
			rule := mf.Rule(tgt)
			var inBytes int
			for _, d := range rule.Deps {
				inBytes += len(p.Files[d])
			}
			t.WithOnlyOpts(
				jade.TaskOptions{
					Label: rule.Command[0] + " " + tgt,
					Cost:  workPerByte * float64(inBytes+256),
				},
				func(s *jade.Spec) {
					for _, d := range rule.Deps {
						s.Rd(objs[d])
					}
					s.RdWr(objs[tgt])
				},
				func(t *jade.Task) {
					out, err := runCommand(rule.Command, tgt, func(d string) []byte {
						return getContent(objs[d].Read(t))
					})
					if err != nil {
						panic(fmt.Sprintf("pmake: %v", err))
					}
					if err := putContent(objs[tgt].ReadWrite(t), out); err != nil {
						panic(fmt.Sprintf("pmake: %s: %v", tgt, err))
					}
				})
		}
	})
	if runErr != nil {
		return nil, runErr
	}
	// Read back results and stamp modification times in plan order, exactly
	// as the serial build would have.
	for _, tgt := range order {
		p.WriteFile(tgt, getContent(jade.Final(r, objs[tgt])))
	}
	return order, nil
}
